package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"taskdep/internal/obs"
	"taskdep/internal/rt"
	"taskdep/internal/serve"
)

// The graph service under a closed loop: nproc clients, each on its own
// single-worker tenant, send their next graph only after reading the
// previous NDJSON stream to its end. Each graph is const -> 62 x mul ->
// sum; one request in every four (at a seeded position) carries
// repeat:16 and takes the compiled frozen-replay path, so one-shot
// discovery and replay share the stream.
type serveSize struct {
	muls, repeat int
	pool         int // distinct requests per client, cycled
	warm         int // warm-up requests per client in set-up
}

func serveSizes(p params) serveSize {
	if p.tiny {
		return serveSize{muls: 4, repeat: 2, pool: 8, warm: 2}
	}
	return serveSize{muls: 62, repeat: 16, pool: 64, warm: 32}
}

// serveReq is one generated request and the value its "total" result
// must have.
type serveReq struct {
	body   []byte
	repeat int
	tasks  int64
	want   float64
}

// genRequests derives each client's request stream from the seed: the
// const and mul operands, and which request of every four repeats.
func genRequests(sz serveSize, seed int64, clients int) ([][]serveReq, error) {
	out := make([][]serveReq, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		repeatAt := 0
		for i := 0; i < sz.pool; i++ {
			if i%4 == 0 {
				repeatAt = i + rng.Intn(4)
			}
			base := 1 + rng.Intn(1000)
			g := serve.GraphRequest{Results: []string{"total"}}
			g.Tasks = append(g.Tasks, serve.TaskWire{Label: "const", Op: "const",
				Arg: json.RawMessage(fmt.Sprint(base)), Provide: []string{"x"}})
			var parts []string
			want := 0.0
			for k := 0; k < sz.muls; k++ {
				f := 1 + rng.Intn(100)
				slot := fmt.Sprintf("m%d", k)
				g.Tasks = append(g.Tasks, serve.TaskWire{Label: slot, Op: "mul",
					Arg: json.RawMessage(fmt.Sprint(f)), Consume: []string{"x"}, Provide: []string{slot}})
				parts = append(parts, slot)
				want += float64(base * f)
			}
			g.Tasks = append(g.Tasks, serve.TaskWire{Label: "sum", Op: "sum", Consume: parts, Provide: []string{"total"}})
			if i == repeatAt {
				g.Repeat = sz.repeat
			}
			if got, err := serialEval(&g); err != nil || got != want {
				return nil, fmt.Errorf("generated graph evaluates to %v (%v), want %v", got, err, want)
			}
			body, err := json.Marshal(g)
			if err != nil {
				return nil, err
			}
			out[c] = append(out[c], serveReq{body: body, repeat: max(g.Repeat, 1),
				tasks: int64(len(g.Tasks) * max(g.Repeat, 1)), want: want})
		}
	}
	return out, nil
}

// serialEval runs the graph's operators in submission order on one
// goroutine, once per repeat: the single-threaded reference.
func serialEval(g *serve.GraphRequest) (float64, error) {
	var total any
	for it := 0; it < max(g.Repeat, 1); it++ {
		slots := make(map[string]any, len(g.Tasks))
		for i := range g.Tasks {
			t := &g.Tasks[i]
			in := make([]any, 0, len(t.Consume))
			for _, s := range t.Consume {
				in = append(in, slots[s])
			}
			v, err := serve.Ops[t.Op](t.Arg, in)
			if err != nil {
				return 0, err
			}
			for _, s := range t.Provide {
				slots[s] = v
			}
		}
		total = slots["total"]
	}
	f, _ := total.(float64)
	return f, nil
}

type serveInst struct {
	srv    *serve.Server
	ep     *obs.Server
	url    string
	client *http.Client
	reqs   [][]serveReq
	next   []int // per-client position in its stream
	pre    tally // checks made during set-up
}

func tenantName(c int) string { return fmt.Sprintf("client-%d", c) }

func prepareServe(p params) (setupFunc, error) {
	sz := serveSizes(p)
	reqs, err := genRequests(sz, p.seed, p.clients)
	if err != nil {
		return nil, err
	}
	if p.corrupt {
		reqs[0][0].want += 1
	}
	return func(traced bool) (instance, error) {
		srv := serve.New(serve.Options{CPath: traced})
		ep, err := obs.Serve("127.0.0.1:0", srv.Handler())
		if err != nil {
			srv.Shutdown()
			return nil, err
		}
		s := &serveInst{srv: srv, ep: ep, url: "http://" + ep.Addr() + "/v1/graphs", reqs: reqs,
			next:   make([]int, len(reqs)),
			client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: len(reqs)}}}
		var warm tally
		s.loop(func(c int) bool { return s.next[c] < sz.warm }, &warm)
		s.pre = warm.checks()
		if traced {
			for c := range reqs {
				if tn, ok := srv.Manager().Lookup(tenantName(c)); ok {
					tn.Runtime().Obs().SetTiming(true)
				}
			}
		}
		return s, nil
	}, nil
}

// loop runs every client's closed loop over HTTP while more(client)
// holds, and merges what the clients measured into t.
func (s *serveInst) loop(more func(c int) bool, t *tally) {
	start := time.Now()
	if t.origin.IsZero() {
		t.origin = start
	}
	parts := make([]tally, len(s.reqs))
	var wg sync.WaitGroup
	for c := range s.reqs {
		parts[c].origin = t.origin
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pt := &parts[c]
			for more(c) {
				r := &s.reqs[c][s.next[c]%len(s.reqs[c])]
				s.next[c]++
				t0 := time.Now()
				status, events, err := s.post(c, r.body)
				el := time.Since(t0)
				pt.attempted++
				switch {
				case err != nil:
					pt.fail(1, "client %d: %v", c, err)
				case status == http.StatusTooManyRequests:
					pt.rejected++
					pt.fail(1, "client %d: 429", c)
				case status != http.StatusOK:
					pt.fail(1, "client %d: status %d", c, status)
				default:
					if err := checkEvents(events, r); err != nil {
						pt.fail(1, "client %d: %v", c, err)
						continue
					}
					pt.record(t0, el, r.tasks)
				}
			}
		}(c)
	}
	wg.Wait()
	el := time.Since(start)
	t.busy += el
	t.wall += el
	for i := range parts {
		t.merge(&parts[i])
	}
}

func (s *serveInst) post(c int, body []byte) (int, []serve.Event, error) {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Tenant", tenantName(c))
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, nil
	}
	var events []serve.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e serve.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return resp.StatusCode, nil, fmt.Errorf("stream line %q: %w", sc.Text(), err)
		}
		events = append(events, e)
	}
	return resp.StatusCode, events, sc.Err()
}

// checkEvents requires a clean stream: one event per task, the
// predicted total, and a done event with the requested iteration count.
func checkEvents(events []serve.Event, r *serveReq) error {
	tasks, done := 0, false
	var total any
	for _, e := range events {
		switch e.Type {
		case "task":
			tasks++
		case "result":
			if e.Key == "total" {
				total = e.Value
			}
		case "error":
			return fmt.Errorf("error event: %s %s", e.Task, e.Err)
		case "done":
			done = e.Iters == r.repeat
		}
	}
	if want := int(r.tasks) / r.repeat; tasks != want || !done {
		return fmt.Errorf("stream has %d task events (want %d), done=%v", tasks, want, done)
	}
	if total != r.want {
		return fmt.Errorf("total is %v, want %v", total, r.want)
	}
	return nil
}

func (s *serveInst) measure(d time.Duration, t *tally) {
	t.merge(&s.pre)
	s.pre = tally{}
	deadline := time.Now().Add(d)
	s.loop(func(int) bool { return time.Now().Before(deadline) }, t)
}

// layerPass sends the same stream through the service's own functions
// in-process, timing each layer a request crosses: decode and validate,
// admission, and the tenant run.
func (s *serveInst) layerPass(d time.Duration, sl *serveLayers, t *tally) {
	m := s.srv.Manager()
	parts := make([]serveLayers, len(s.reqs))
	checks := make([]tally, len(s.reqs))
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range s.reqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pl, pt := &parts[c], &checks[c]
			for time.Now().Before(deadline) {
				r := &s.reqs[c][s.next[c]%len(s.reqs[c])]
				s.next[c]++
				pt.attempted++
				t0 := time.Now()
				var req serve.GraphRequest
				err := json.NewDecoder(bytes.NewReader(r.body)).Decode(&req)
				if err == nil {
					err = req.Validate()
				}
				t1 := time.Now()
				if err != nil {
					pt.fail(1, "client %d decode: %v", c, err)
					continue
				}
				tn, err := m.Tenant(tenantName(c))
				var release func()
				if err == nil {
					release, err = m.Admit(tn)
				}
				t2 := time.Now()
				if err != nil {
					pl.rejected++
					pt.fail(1, "client %d admit: %v", c, err)
					continue
				}
				events := make(chan serve.Event, 2*len(req.Tasks)+16)
				err = tn.Run(context.Background(), &req, func(e serve.Event) { events <- e })
				t3 := time.Now()
				release()
				close(events)
				if err != nil {
					pt.fail(1, "client %d run: %v", c, err)
					continue
				}
				var got []serve.Event
				for e := range events {
					got = append(got, e)
				}
				got = append(got, serve.Event{Type: "done", Iters: max(req.Repeat, 1)})
				if err := checkEvents(got, r); err != nil {
					pt.fail(1, "client %d: %v", c, err)
					continue
				}
				pl.n++
				pl.decode += t1.Sub(t0)
				pl.admit += t2.Sub(t1)
				if r.repeat > 1 {
					pl.nRep++
					pl.runRep += t3.Sub(t2)
				} else {
					pl.nOne++
					pl.runOne += t3.Sub(t2)
				}
				pl.totalLayered += t3.Sub(t0)
			}
		}(c)
	}
	wg.Wait()
	for c := range parts {
		sl.add(&parts[c])
		t.merge(&checks[c])
	}
}

func (s *serveInst) runtimes() []*rt.Runtime {
	var rs []*rt.Runtime
	for c := range s.reqs {
		if tn, ok := s.srv.Manager().Lookup(tenantName(c)); ok {
			rs = append(rs, tn.Runtime())
		}
	}
	return rs
}

func (s *serveInst) snap() layerSnap {
	var sum layerSnap
	for _, r := range s.runtimes() {
		sum.add(snapRuntime(r))
	}
	return sum
}

// executors: every tenant runtime has one worker plus its producer.
func (s *serveInst) executors() (int, int) {
	per := s.srv.Manager().Options().Workers + 1
	return per, per * len(s.reqs)
}

// serialMs is the median time of serialEval over one client's stream.
func (s *serveInst) serialMs() float64 {
	var times []float64
	for i := range s.reqs[0] {
		var g serve.GraphRequest
		if err := json.Unmarshal(s.reqs[0][i].body, &g); err != nil {
			return 0
		}
		t0 := time.Now()
		if _, err := serialEval(&g); err != nil {
			return 0
		}
		times = append(times, time.Since(t0).Seconds()*1e3)
	}
	return quantile(times, 0.5)
}

func (s *serveInst) close() error {
	s.client.CloseIdleConnections()
	err := s.ep.Close()
	s.srv.Shutdown()
	return err
}
