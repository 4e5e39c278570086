// Command perfbench is the repository's benchmark. It runs one workload
// against the default runtime and service configuration, changing only
// the worker count, checks every output against a reference, and prints
// one JSON result as its last line of standard output.
//
// Build and run it from the checkout root through run.sh:
//
//	bash perfbench/run.sh --workload lulesh-discover --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run, which interleaves
// phases on an untraced and a traced instance of the workload so that
// the cost of tracing is measured in the same process. Metric names,
// units and the layer each one belongs to are declared in metrics.go.
// The exit code is 0 only when every checked output was correct.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"taskdep/internal/obs"
	"taskdep/internal/rt"
)

// workload builds set-up instances of one workload.
type workload struct {
	name, why string
	// prepare generates the inputs and reference outputs once, outside
	// any timing, and returns the set-up function.
	prepare func(p params) (setupFunc, error)
}

// setupFunc creates an instance ready to measure: runtime or server
// creation, any recording iteration, and the warm-up. setup_s times it.
type setupFunc func(traced bool) (instance, error)

// instance is one set-up copy of a workload.
type instance interface {
	// measure runs graphs for about d and adds them to t.
	measure(d time.Duration, t *tally)
	// snap reads the cumulative counters and histograms of the
	// instance's runtimes.
	snap() layerSnap
	// executors returns the slots (workers plus producer) of the runtime
	// that runs one graph, and of all the instance's runtimes.
	executors() (perGraph, total int)
	// serialMs times the plain single-threaded reference of one graph.
	serialMs() float64
	close() error
}

var workloads = []workload{
	{name: "lulesh-discover", why: "LULESH re-discovers every step without persistence, so graph discovery and the single producer carry the time", prepare: prepareLulesh},
	{name: "cholesky-persistent", why: "persistent Cholesky replays a recorded graph, so the scheduler, release and the iteration barrier carry the time", prepare: prepareCholesky},
	{name: "serve-fanout", why: "closed-loop clients of the graph service mix one-shot discovery with compiled replay behind HTTP, JSON and admission", prepare: prepareServe},
}

// params are the inputs shared by every workload.
type params struct {
	seed    int64
	workers int // runtime workers: nproc-1, so workers plus producer fill nproc
	clients int // serve clients, one tenant each: nproc
	tiny    bool
	// corrupt makes the references disagree with the program, so the
	// self-test can see wrong results counted as failed.
	corrupt bool
}

// runtimeConfig is the default runtime configuration with the worker
// count set; a traced instance also turns on the span/histogram tier and
// precise critical-path phase attribution.
func runtimeConfig(workers int, traced bool) rt.Config {
	cfg := rt.Config{Workers: workers}
	if traced {
		cfg.Obs = obs.Options{Spans: true}
		cfg.CPath = rt.CPathOptions{Enable: true, Precise: true}
	}
	return cfg
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is printed before the result: what was run, on what, how many
// samples each timing rests on, and (untraced) the task throughput of
// each window the medians are taken over.
type report struct {
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Trace       bool             `json:"trace"`
	Fingerprint map[string]any   `json:"fingerprint"`
	Samples     map[string]int64 `json:"samples"`
	Windows     []float64        `json:"windows,omitempty"`
	Errors      []string         `json:"errors,omitempty"`
}

const (
	setupReps = 7
	windows   = 10 // equal slices of a measured run; each timing is their median
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", names())
		return 2
	}
	nproc := runtime.NumCPU()
	p := params{seed: *seed, workers: max(nproc-1, 1), clients: nproc}
	rep := report{Workload: wl.name, Seed: *seed, Trace: *trace == 1, Fingerprint: fingerprint(*seed)}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(wl, p, d, &rep)
	} else {
		res, err = runPlain(wl, p, d, &rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if b, err := json.Marshal(rep); err == nil {
		fmt.Fprintln(stdout, string(b))
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d checked outputs wrong: %s\n", res.Failed, res.Attempted, strings.Join(rep.Errors, "; "))
		return 1
	}
	return 0
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// runPlain sets the workload up setupReps times, reporting the median
// set-up time, then measures the last instance untraced.
func runPlain(wl *workload, p params, d time.Duration, rep *report) (result, error) {
	setup, err := wl.prepare(p)
	if err != nil {
		return result{}, fmt.Errorf("prepare: %w", err)
	}
	var setups []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		in, err := setup(false)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := in.close(); err != nil {
				return result{}, fmt.Errorf("close: %w", err)
			}
		} else {
			inst = in
		}
	}
	var t tally
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	inst.measure(d, &t)
	runtime.ReadMemStats(&m1)
	if err := inst.close(); err != nil {
		return result{}, fmt.Errorf("close: %w", err)
	}
	if t.graphs == 0 {
		return result{}, fmt.Errorf("no graph completed in %v", d)
	}
	ws := t.windows(windows)
	minN := len(t.lat)
	for _, w := range ws {
		rep.Windows = append(rep.Windows, w.tasksPerS)
		minN = min(minN, w.n)
	}
	vals := map[string]float64{
		"tasks_per_s":          medianOf(ws, func(w window) float64 { return w.tasksPerS }),
		"graphs_per_s":         medianOf(ws, func(w window) float64 { return w.graphsPerS }),
		"graph_p50_ms":         medianOf(ws, func(w window) float64 { return w.p50 }) * 1e3,
		"alloc_bytes_per_task": ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(t.tasks)),
		"setup_s":              quantile(setups, 0.5),
	}
	rep.Samples = map[string]int64{"graphs": int64(len(t.lat)), "windows": windows,
		"min_graphs_per_window": int64(minN), "setups": setupReps, "tasks": t.tasks}
	rep.Errors = t.errs
	return finish(endToEnd, vals, t.attempted, t.failed), nil
}

// runTraced interleaves measuring phases on an untraced instance (a)
// and a traced one (b), so the tracing overhead is measured under the
// same load, and reads b's layer counters around its phases.
func runTraced(wl *workload, p params, d time.Duration, rep *report) (result, error) {
	setup, err := wl.prepare(p)
	if err != nil {
		return result{}, fmt.Errorf("prepare: %w", err)
	}
	a, err := setup(false)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer a.close()
	b, err := setup(true)
	if err != nil {
		return result{}, fmt.Errorf("setup traced: %w", err)
	}
	defer b.close()

	const rounds = 4
	slices := 2 * rounds
	lp, layered := b.(layerPasser)
	if layered {
		slices++
	}
	phase := d / time.Duration(slices)
	var ta, tb tally
	var dl layerSnap
	for r := 0; r < rounds; r++ {
		a.measure(phase, &ta)
		s0 := b.snap()
		b.measure(phase, &tb)
		dl.add(b.snap().sub(s0))
	}
	var sl serveLayers
	if layered {
		lp.layerPass(phase, &sl, &tb)
	}
	if ta.graphs == 0 || tb.graphs == 0 {
		return result{}, fmt.Errorf("no graph completed in %v", phase)
	}
	serial := b.serialMs()
	perGraph, total := b.executors()
	vals := layerMetrics(dl, &ta, &tb, &sl, serial, perGraph, total)
	attempted := ta.attempted + tb.attempted
	failed := ta.failed + tb.failed
	vals["failed_frac"] = ratio(float64(failed), float64(attempted))
	rep.Samples = map[string]int64{"untraced_graphs": int64(len(ta.lat)), "traced_graphs": int64(len(tb.lat)), "layer_requests": sl.n}
	rep.Errors = append(ta.errs, tb.errs...)
	return finish(perLayer, vals, attempted, failed), nil
}

// finish assembles the result from the declared metrics.
func finish(defs []metricDef, vals map[string]float64, attempted, failed int64) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range defs {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res
}

// fingerprint identifies the machine and the code a result came from.
// Wall-clock figures compare only between equal fingerprints.
func fingerprint(seed int64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"source":     sourceHash("."),
		"seed":       seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under root, so a
// checkout without version-control metadata still names the code it
// measured.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && path != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
