// Command perfbench is GinFlow's end-to-end benchmark. It drives the
// engine through core.Manager from one process on one of four
// workloads (mesh, fan, durable, remote), checks every session's
// outputs against a reference, and prints the end-to-end metrics — or,
// with --trace 1, the per-layer metrics — as the last line of its
// standard output:
//
//	go run . --workload fan --seed 1 --seconds 10 --trace 0
//
// README.md describes the workloads, the metrics and what each layer
// metric is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run builds its set-up; setup_s is the
// median, so one slow build (a GC, a page-cache miss) does not move it.
const setupReps = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	traceOut string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, workloads()))
}

// run parses the arguments, measures and prints; it returns the exit
// code: 0 when every session passed its output checks, 1 when any
// failed, 2 on a usage or set-up error.
func run(args []string, stdout, stderr io.Writer, wls map[string]*workload) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: mesh, fan, durable or remote")
	fs.Int64Var(&o.seed, "seed", 1, "cluster placement seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "run"), "directory for journals and trace files")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file of the traced run (default <workdir>/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := wls[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames(wls))
		return 2
	}
	o.trace = trace == 1
	if o.traceOut == "" {
		o.traceOut = filepath.Join(o.workdir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	}
	fmt.Fprintf(stdout, "env go=%s nproc=%d GOMAXPROCS=%d workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.workload, o.seed, o.seconds, trace)

	var res result
	var notes []string
	var err error
	if o.trace {
		res, notes, err = traced(w, o)
	} else {
		res, notes, err = untraced(w, o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames(wls map[string]*workload) []string {
	var names []string
	for n := range wls {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupRun generates the workload and builds its set-up, timing both.
func setupRun(w *workload, o options) (*bench, *env, time.Duration, error) {
	t0 := time.Now()
	b := &bench{w: w, seed: o.seed, workdir: o.workdir, def: w.def(), wantTotal: w.wantTotal, services: w.services()}
	e, err := b.setup()
	return b, e, time.Since(t0), err
}

// untraced measures the end-to-end metrics: setupReps set-ups (all but
// the last torn down again), then one timed closed-loop window.
func untraced(w *workload, o options) (result, []string, error) {
	var setups []float64
	var b *bench
	var e *env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return result{}, nil, err
			}
		}
		var d time.Duration
		var err error
		if b, e, d, err = setupRun(w, o); err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	before := sampleProcess()
	peak := startPeakSampler()
	loop := b.runLoop(e, loopOpts{duration: seconds(o.seconds)})
	peakHeap, _ := peak.stop()
	after := sampleProcess()
	if err := e.close(); err != nil {
		return result{}, nil, err
	}

	ok := loop.ok()
	var lat []float64
	tasks := 0
	for _, s := range ok {
		lat = append(lat, ms(s.latency))
		tasks += s.tasks
	}
	n := float64(max(loop.attempted, 1))
	tl := tailOf(lat, w.tailCeiling)
	res := result{
		Correct:   loop.failed == 0 && loop.attempted > 0,
		Attempted: loop.attempted,
		Failed:    loop.failed,
		Metrics: map[string]metric{
			"setup_s":              {median(setups), "s"},
			"tasks_per_s":          {float64(tasks) / loop.wall.Seconds(), "1/s"},
			"session_p50_ms":       {median(lat), "ms"},
			"session_tail_ms":      {tl.Value, "ms"},
			"cpu_ms_per_session":   {(after.cpu - before.cpu).Seconds() * 1e3 / n, "ms"},
			"alloc_mb_per_session": {float64(after.alloc-before.alloc) / 1e6 / n, "MB"},
			"peak_heap_mb":         {peakHeap / 1e6, "MB"},
		},
	}
	notes := []string{
		fmt.Sprintf("sessions=%d failed=%d failed_frac=%g window_s=%.3f tail=p%g of n=%d setups_s=%.4f",
			loop.attempted, loop.failed, float64(loop.failed)/n, loop.wall.Seconds(), tl.Percentile, tl.Samples, setups),
	}
	if loop.firstErr != nil {
		notes = append(notes, "first failure: "+loop.firstErr.Error())
	}
	return res, notes, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
