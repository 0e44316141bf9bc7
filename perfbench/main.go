// Command perfbench is the repository benchmark. It drives the program
// from outside, through the exported functions of its modules, and times
// every call from its own code: the cold c432-class pipeline
// (experiments.RunCtx) and served jobs on an in-process 3-node ring
// (serve, store, cluster).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: pipeline-c432, serve-hit, serve-fwd, serve-replica,
// serve-cold, or all. With --trace 0 a run measures the end-to-end
// metrics with no tracing; with --trace 1 it runs the traced suite that
// gives the per-layer metrics and writes its spans under .bench_build.
// --smoke runs the same code on c17-sized inputs in seconds. The last
// line of standard output is one JSON object: correct, attempted, failed
// and metrics. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"defectsim/internal/experiments"
	"defectsim/internal/netlist"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// report is the JSON object on the last line of standard output.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// plan sizes the inputs: the full benchmark, or the smoke variant that
// drives the same paths on c17-sized circuits.
type plan struct {
	smoke        bool
	pipeCircuit  func() *netlist.Netlist
	probeCircuit func() *netlist.Netlist // about twice pipeCircuit's gates
	warmCircuits []string
	coldCircuits []string
	keysPerPath  int
	// segments is how many fresh set-ups a run measures in turn, for
	// the served workloads and for the pipeline (whose runs take seconds).
	segments, pipeSegments int
	traceOps               int // operations per served path in the traced run
	coldSample             int // cold keys re-run directly after timing
	// stageSumTolerance bounds |stage sum / untraced run - 1| in the
	// traced run.
	stageSumTolerance float64
}

func fullPlan() plan {
	return plan{
		pipeCircuit:       func() *netlist.Netlist { return netlist.C432Class(pipelineCircuitSeed) },
		probeCircuit:      func() *netlist.Netlist { return netlist.RandomCircuit("c432x2", pipelineCircuitSeed, 72, 14, 280) },
		warmCircuits:      []string{"mux", "dec", "parity", "cmp"},
		coldCircuits:      []string{"dec", "mux", "parity"},
		keysPerPath:       8,
		segments:          5,
		pipeSegments:      3,
		traceOps:          40,
		coldSample:        3,
		stageSumTolerance: 0.10,
	}
}

func smokePlan() plan {
	return plan{
		smoke:             true,
		pipeCircuit:       netlist.C17,
		probeCircuit:      func() *netlist.Netlist { return netlist.RandomCircuit("c17x2", pipelineCircuitSeed, 5, 2, 8) },
		warmCircuits:      []string{"c17"},
		coldCircuits:      []string{"c17"},
		keysPerPath:       2,
		segments:          2,
		pipeSegments:      2,
		traceOps:          4,
		coldSample:        1,
		stageSumTolerance: 1, // millisecond runs: the check only has to execute
	}
}

// buildDir, relative to the working directory, holds everything a run
// writes: node stores (removed at exit) and span files.
const buildDir = ".bench_build"

var workloads = []string{"pipeline-c432", "serve-hit", "serve-fwd", "serve-replica", "serve-cold"}

// pathNames maps each workload's p50/p95 onto the per-path names the
// benchmark's design uses (README.md).
var pathNames = map[string][2]string{
	"pipeline-c432": {"run_p50_s", ""},
	"serve-hit":     {"hit_p50_ms", "hit_p95_ms"},
	"serve-fwd":     {"fwd_p50_ms", "fwd_p95_ms"},
	"serve-replica": {"replica_p50_ms", "replica_p95_ms"},
	"serve-cold":    {"cold_p50_ms", "cold_p95_ms"},
}

// env is one benchmark process's settings.
type env struct {
	plan    plan
	seed    int64
	seconds time.Duration
	workdir string
	rings   atomic.Int64
	// wrap is passed to every ring (tests corrupt responses with it).
	wrap func(node int, h http.Handler) http.Handler
	// mutate is applied to every pipeline result (tests corrupt it).
	mutate func(*experiments.Pipeline)
	// first is the pipeline digest every run of an unrecorded seed must
	// reproduce.
	first firstDigest
	// warm and cold are the served workloads' inputs (see inputs).
	warm map[string][]*job
	cold [][]*job
}

// loop is the result of a closed-loop measurement.
type loop struct {
	lats      []time.Duration
	attempted int
	failed    int
	elapsed   time.Duration
	alloc     allocSnap
}

// measure runs nClients closed-loop clients, each calling op until the
// deadline or, when maxOps > 0, until maxOps operations have started.
// op returns the latency to record.
func measure(ctx context.Context, nClients int, d time.Duration, maxOps int, op func(ctx context.Context, c, i int) (time.Duration, error)) loop {
	runtime.GC()
	a0 := readAlloc()
	start := time.Now()
	deadline := start.Add(d)
	var (
		mu      sync.Mutex
		l       loop
		started atomic.Int64
		wg      sync.WaitGroup
	)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// last is this client's previous latency: an operation
			// starts only if at least half of it fits before the deadline,
			// so that multi-second operations do not overrun the run.
			var last time.Duration
			for i := 0; time.Now().Add(last/2).Before(deadline) && ctx.Err() == nil; i++ {
				if maxOps > 0 && started.Add(1) > int64(maxOps) {
					return
				}
				lat, err := op(ctx, c, i)
				last = lat
				mu.Lock()
				l.attempted++
				if err != nil {
					l.failed++
					if l.failed <= 3 {
						fmt.Fprintf(os.Stderr, "perfbench: failed op: %v\n", err)
					}
				} else {
					l.lats = append(l.lats, lat)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	l.elapsed = time.Since(start)
	l.alloc = readAlloc().sub(a0)
	return l
}

// workload is one set-up state ready for the timed loop.
type workload interface {
	clients() int
	op(ctx context.Context, c, i int) (time.Duration, error)
	verify(ctx context.Context) error
	close()
}

func (e *env) ringOpts(t *tap) (ringOptions, error) {
	dir, err := workDir(e.workdir, &e.rings)
	return ringOptions{dir: dir, tap: t, wrap: e.wrap}, err
}

// inputs draws the named workload's inputs from the seed, once per
// process; set-up then starts from them.
func (e *env) inputs(ctx context.Context, name string) error {
	var err error
	switch name {
	case "serve-hit", "serve-fwd", "serve-replica":
		if e.warm == nil {
			e.warm, err = warmKeys(ctx, e.plan, e.seed)
		}
	case "serve-cold":
		// Enough fresh keys for every client to run flat out.
		e.cold, err = coldKeys(e.plan, e.seed, int(e.seconds/(25*time.Millisecond))+16)
	}
	return err
}

// setup builds the named workload's state once.
func (e *env) setup(ctx context.Context, name string) (workload, error) {
	switch name {
	case "pipeline-c432":
		st, err := setupPipeline(e.plan, e.seed)
		if err != nil {
			return nil, err
		}
		st.mutate, st.first = e.mutate, &e.first
		return pipelineWorkload{st}, nil
	case "serve-hit", "serve-fwd", "serve-replica":
		o, err := e.ringOpts(nil)
		if err != nil {
			return nil, err
		}
		ws, err := setupWarm(ctx, e.warm, o)
		if err != nil {
			return nil, err
		}
		return &warmWorkload{ws: ws, path: name[len("serve-"):], name: name}, nil
	case "serve-cold":
		o, err := e.ringOpts(nil)
		if err != nil {
			return nil, err
		}
		cs, err := setupCold(ctx, e.cold, o)
		if err != nil {
			return nil, err
		}
		return &coldWorkload{cs: cs, seed: e.seed, sample: e.plan.coldSample}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v, all)", name, workloads)
}

type pipelineWorkload struct{ st *pipelineState }

func (w pipelineWorkload) clients() int { return 1 }
func (w pipelineWorkload) op(ctx context.Context, _, _ int) (time.Duration, error) {
	t0 := time.Now()
	p, err := experiments.RunCtx(ctx, w.st.nl, w.st.cfg)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if w.st.mutate != nil {
		w.st.mutate(p)
	}
	return lat, w.st.check(p)
}

func (w pipelineWorkload) verify(context.Context) error { return nil }
func (w pipelineWorkload) close()                       {}

type warmWorkload struct {
	ws   *warmState
	path string
	name string
}

func (w *warmWorkload) clients() int { return clients }

// op reads one key of the path. Client c owns the keys at c, c+clients,
// …, so that the two clients never coalesce onto one job; within its
// keys it cycles.
func (w *warmWorkload) op(ctx context.Context, c, i int) (time.Duration, error) {
	keys := w.ws.keys[w.path]
	own := (len(keys) - c + clients - 1) / clients
	j := keys[c+clients*(i%own)]
	t0 := time.Now()
	err := w.ws.op(ctx, w.path, j, ridFor(w.name, c, i))
	return time.Since(t0), err
}
func (w *warmWorkload) verify(context.Context) error { return w.ws.verify() }
func (w *warmWorkload) close()                       { w.ws.ring.close() }

type coldWorkload struct {
	cs     *coldState
	seed   int64
	sample int
}

func (w *coldWorkload) clients() int { return clients }
func (w *coldWorkload) op(ctx context.Context, c, i int) (time.Duration, error) {
	t0 := time.Now()
	err := w.cs.op(ctx, c, ridFor("serve-cold", c, i))
	return time.Since(t0), err
}
func (w *coldWorkload) verify(ctx context.Context) error {
	return w.cs.verify(ctx, w.seed, w.sample)
}
func (w *coldWorkload) close() { w.cs.ring.close() }

// runWorkload measures the workload in segments of equal length, each on
// a fresh set-up, and checks each segment. Latencies pool over the
// segments; setup_s is the median set-up time. A fresh ring per segment
// averages over the ring's start-up state, which otherwise fixes a run's
// speed for its whole length.
func (e *env) runWorkload(ctx context.Context, name string) (report, error) {
	if err := e.inputs(ctx, name); err != nil {
		return report{}, fmt.Errorf("inputs %s: %w", name, err)
	}
	rep := report{Correct: true, Metrics: metrics{}}
	var (
		l      loop
		setups []float64
	)
	segs := e.plan.segments
	if name == "pipeline-c432" {
		segs = e.plan.pipeSegments
	}
	for i := 0; i < segs; i++ {
		t0 := time.Now()
		w, err := e.setup(ctx, name)
		if err != nil {
			return report{}, fmt.Errorf("set-up %s: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		seg := measure(ctx, w.clients(), e.seconds/time.Duration(segs), 0, w.op)
		if err := w.verify(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: check after timing: %v\n", name, err)
			rep.Correct = false
		}
		w.close()
		l.lats = append(l.lats, seg.lats...)
		l.attempted += seg.attempted
		l.failed += seg.failed
		l.elapsed += seg.elapsed
		l.alloc.bytes += seg.alloc.bytes
		l.alloc.mallocs += seg.alloc.mallocs
	}
	rep.Attempted, rep.Failed = l.attempted, l.failed
	if l.failed > 0 {
		rep.Correct = false
	}
	if len(l.lats) == 0 {
		return rep, fmt.Errorf("%s: no operation succeeded", name)
	}
	ms := msOf(l.lats)
	n := len(ms)
	m := rep.Metrics
	m.set("setup_s", median(setups), "s")
	m.set("ops_per_s", float64(n)/l.elapsed.Seconds(), "1/s")
	m.set("p50_ms", quantile(ms, 0.50), "ms")
	m.set("p90_ms", quantile(ms, 0.90), "ms")
	m.set("alloc_mib_per_op", l.alloc.mib()/float64(n), "MiB")
	m.set("peak_rss_mib", peakRSSMiB(), "MiB")
	printRun(name, e.seed, rep.Correct, l, len(setups), m, quantile(ms, 0.95))
	return rep, nil
}

// printRun prints one run's metrics by name with unit and sample count,
// then the same latencies under the per-path names of README.md.
func printRun(name string, seed int64, correct bool, l loop, setups int, m metrics, p95 float64) {
	n := len(l.lats)
	fmt.Printf("%s seed=%d: %.2f s timed, correct=%v\n", name, seed, l.elapsed.Seconds(), correct)
	fmt.Printf("  %-18s %12d\n", "ops", l.attempted)
	fmt.Printf("  %-18s %12d\n", "ops_failed", l.failed)
	line := func(k string, v float64, unit, note string) {
		fmt.Printf("  %-18s %12.4f %-4s (%s)\n", k, v, unit, note)
	}
	// tail notes a percentile with fewer than ten samples beyond it.
	tail := func(q float64) string {
		if beyond := int(float64(n) * (1 - q)); beyond < 10 {
			return fmt.Sprintf("n=%d, thin: %d samples beyond", n, beyond)
		}
		return fmt.Sprintf("n=%d", n)
	}
	line("setup_s", m["setup_s"].Value, "s", fmt.Sprintf("median of %d set-ups", setups))
	line("ops_per_s", m["ops_per_s"].Value, "1/s", fmt.Sprintf("n=%d", n))
	line("p50_ms", m["p50_ms"].Value, "ms", fmt.Sprintf("n=%d", n))
	line("p90_ms", m["p90_ms"].Value, "ms", tail(0.90))
	line("p95_ms", p95, "ms", tail(0.95)+", not gated")
	line("alloc_mib_per_op", m["alloc_mib_per_op"].Value, "MiB", fmt.Sprintf("n=%d", n))
	line("peak_rss_mib", m["peak_rss_mib"].Value, "MiB", "process high-water mark")
	names := pathNames[name]
	if name == "pipeline-c432" {
		line(names[0], m["p50_ms"].Value/1000, "s", fmt.Sprintf("n=%d", n))
		return
	}
	line(names[0], m["p50_ms"].Value, "ms", fmt.Sprintf("n=%d", n))
	if n >= minTailSamples {
		line(names[1], p95, "ms", fmt.Sprintf("n=%d", n))
	} else {
		fmt.Printf("  %-18s %12s %-4s (n=%d < %d: unsupported)\n", names[1], "-", "ms", n, minTailSamples)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "pipeline-c432", "workload: pipeline-c432, serve-hit, serve-fwd, serve-replica, serve-cold or all")
		seed    = flag.Int64("seed", 1994, "workload seed: every input is derived from it")
		seconds = flag.Int("seconds", 10, "timed seconds per run")
		traced  = flag.Int("trace", 0, "1 runs the traced suite and reports the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "run on c17-sized inputs (seconds, for testing the benchmark)")
	)
	flag.Parse()
	known := *name == "all"
	for _, w := range workloads {
		known = known || *name == w
	}
	if !known || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v or all, --seconds >= 1, --trace 0 or 1\n", workloads)
		return 2
	}
	e := &env{plan: fullPlan(), seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *smoke {
		e.plan = smokePlan()
	}
	work := filepath.Join(buildDir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e.workdir = dir
	ctx := context.Background()

	var rep report
	switch {
	case *traced == 1:
		var parts map[string]*recorder
		rep, parts, err = e.traceSuite(ctx)
		if err == nil {
			path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
			if werr := writeSpans(path, parts); werr != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", werr)
			} else {
				fmt.Printf("spans written to %s\n", path)
			}
		}
	case *name == "all":
		all := map[string]report{}
		for _, w := range workloads {
			if all[w], err = e.runWorkload(ctx, w); err != nil {
				break
			}
		}
		if err == nil {
			data, err := json.Marshal(all)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				return 1
			}
			fmt.Println(string(data))
			return 0
		}
	default:
		rep, err = e.runWorkload(ctx, *name)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	data, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// printLayer prints per-layer metrics sorted by name.
func printLayer(m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
