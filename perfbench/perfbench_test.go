package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n       int
		ceiling float64
		want    float64 // percentile
	}{
		{5, 100, 100},   // too few for any ladder step: the maximum
		{20, 100, 50},   // p50 leaves 10 above, p75 only 5
		{100, 100, 90},  // p90 leaves exactly 10
		{99, 100, 75},   // p90 would leave 9
		{1000, 100, 99}, // p99 leaves 10, p99.5 only 5
		{10000, 99.5, 99.5},
		{10000, 100, 99.9},
	}
	for _, c := range cases {
		xs := seq(c.n)
		tl := tailOf(xs, c.ceiling)
		if tl.Percentile != c.want || tl.Samples != c.n {
			t.Errorf("n=%d ceiling=%g: got p%g of %d, want p%g", c.n, c.ceiling, tl.Percentile, tl.Samples, c.want)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > tl.Value {
				beyond++
			}
		}
		if tl.Percentile < 100 && beyond < minBeyond {
			t.Errorf("n=%d: p%g = %g leaves %d samples beyond, want >= %d", c.n, tl.Percentile, tl.Value, beyond, minBeyond)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestAttributeChargesInnermostRepoFrame(t *testing.T) {
	const ms = int64(time.Millisecond)
	samples := []stackSample{
		// runtime.Stack under goid is the scheduler's cost.
		{[]string{"runtime.gentraceback", "runtime.Stack", "ginflow/internal/cluster.goid", "ginflow/internal/cluster.(*vsched).sleep", "ginflow/internal/agent.(*Agent).Run"}, 10 * ms},
		// No repo frame at all: background GC.
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 20 * ms},
		// The façade and the benchmark are not layers.
		{[]string{"runtime.mallocgc", "ginflow/internal/workflow.(*Definition).SrcOf", "ginflow.(*Manager).Submit", "main.main"}, 30 * ms},
		// Rule built by hoclflow, parsed by hocl: parse.
		{[]string{"ginflow/internal/hocl.(*lexer).next", "ginflow/internal/hocl.(*parser).advance", "ginflow/internal/hocl.MustParseRuleBody", "ginflow/internal/hoclflow.GwSetup"}, 40 * ms},
		// Lazy compile inside Reduce: compilation, not reduction.
		{[]string{"ginflow/internal/hocl.compilePattern", "ginflow/internal/hocl.(*Rule).program", "ginflow/internal/hocl.(*Engine).Reduce"}, 50 * ms},
		// Matching inside Reduce: reduction.
		{[]string{"runtime.memmove", "ginflow/internal/hocl.(*matcher).run", "ginflow/internal/hocl.(*Engine).Reduce", "ginflow/internal/agent.(*Agent).reduce"}, 60 * ms},
		// A publish called from a reduction is the broker's.
		{[]string{"ginflow/internal/mq.(*common).deliver", "ginflow/internal/agent.(*Agent).send", "ginflow/internal/hocl.(*Engine).Reduce"}, 70 * ms},
	}
	c := attribute(samples)
	want := map[string]float64{"cluster": 0.01, "runtime": 0.02, "workflow": 0.03, "hocl": 0.15, "mq": 0.07}
	for layer, sec := range want {
		if got := c.self[layer]; !near(got, sec) {
			t.Errorf("self[%s] = %g, want %g", layer, got, sec)
		}
	}
	if len(c.self) != len(want) {
		t.Errorf("layers %v, want exactly %v", c.self, want)
	}
	if !near(c.parse, 0.09) || !near(c.reduce, 0.06) || !near(c.total, 0.28) {
		t.Errorf("parse=%g reduce=%g total=%g, want 0.09 0.06 0.28", c.parse, c.reduce, c.total)
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

func TestParseCPUProfileOfThisProcess(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += spin(1000)
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	var total int64
	for _, s := range samples {
		total += s.nanos
		for _, fn := range s.funcs {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if len(samples) == 0 || total <= 0 || !found {
		t.Errorf("%d samples, %d ns, spin frame found %v (x=%d)", len(samples), total, found, x)
	}
}

//go:noinline
func spin(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i % 7
	}
	return s
}

// mini returns a small copy of a workload with the same platform and
// checks: a 4x4 mesh, or the given number of sessions per client.
func mini(t *testing.T, name string) (*workload, loopOpts) {
	t.Helper()
	w := *workloads()[name]
	o := loopOpts{perClient: 1}
	switch name {
	case "mesh":
		w.def, w.wantTotal = diamond(4, 4), miniMeshTotal
		w.warmDef, w.parked = diamond(2, 2), 4*4+2
	case "fan":
		w.warmups = 2
		o.perClient = 5
	case "durable":
		w.warmups = 1
	case "remote":
		w.clients, w.warmups = 1, 1
	}
	return &w, o
}

// miniMeshTotal is the pinned model time of the 4x4 mesh on the mesh
// workload's platform.
const miniMeshTotal = 40.99

func newMiniBench(t *testing.T, w *workload, seed int64) (*bench, *env) {
	t.Helper()
	b := &bench{w: w, seed: seed, workdir: t.TempDir(), def: w.def(), wantTotal: w.wantTotal, services: w.services()}
	e, err := b.setup()
	if err != nil {
		t.Fatalf("%s set-up: %v", w.name, err)
	}
	return b, e
}

func TestMiniatureWorkloadsPassTheirChecks(t *testing.T) {
	for _, name := range []string{"mesh", "fan", "durable", "remote"} {
		t.Run(name, func(t *testing.T) {
			w, o := mini(t, name)
			b, e := newMiniBench(t, w, 1)
			r, counts, err := b.countedLoop(e, o)
			if err != nil {
				t.Fatal(err)
			}
			if want := o.perClient * w.clients; r.attempted != want || r.failed != 0 {
				t.Fatalf("%d attempted, %d failed (%v), want %d clean sessions", r.attempted, r.failed, r.firstErr, want)
			}
			// Each workload crosses the layers it was chosen for.
			if got := counts["ginflow_journal_appends_total"] > 0; got != w.journal {
				t.Errorf("journal appends %g, journaled workload %v", counts["ginflow_journal_appends_total"], w.journal)
			}
			if got := counts["ginflow_transport_frames_sent_total"] > 0; got != (w.workers > 0) {
				t.Errorf("transport frames %g, remote workload %v", counts["ginflow_transport_frames_sent_total"], w.workers > 0)
			}
			if counts["ginflow_hocl_reduce_calls_total"] == 0 || counts["ginflow_mq_published_total"] == 0 {
				t.Errorf("no reductions or publishes counted: %v", counts)
			}
		})
	}
}

func TestSameSeedVirtualRunsRepeatExactly(t *testing.T) {
	for _, name := range []string{"mesh", "fan"} {
		t.Run(name, func(t *testing.T) {
			type outcome struct {
				model  []float64
				counts map[string]float64
			}
			runOnce := func() outcome {
				w, o := mini(t, name)
				w.clients = 1 // one client: the schedule alone orders every event
				b, e := newMiniBench(t, w, 7)
				r, counts, err := b.countedLoop(e, o)
				if err != nil || r.failed != 0 {
					t.Fatalf("run: %v %v", err, r.firstErr)
				}
				out := outcome{counts: map[string]float64{}}
				for _, s := range r.samples {
					out.model = append(out.model, s.model)
				}
				for k, v := range counts {
					if strings.HasPrefix(k, "ginflow_hocl_") || strings.HasPrefix(k, "ginflow_mq_") {
						out.counts[k] = v
					}
				}
				return out
			}
			a, b := runOnce(), runOnce()
			if len(a.model) == 0 || len(a.model) != len(b.model) {
				t.Fatalf("sessions %d vs %d", len(a.model), len(b.model))
			}
			for i := range a.model {
				if a.model[i] != b.model[i] {
					t.Errorf("session %d model time %v vs %v", i, a.model[i], b.model[i])
				}
			}
			if len(a.counts) == 0 {
				t.Fatal("no hocl or mq counters")
			}
			for k, v := range a.counts {
				if b.counts[k] != v {
					t.Errorf("%s: %g vs %g", k, v, b.counts[k])
				}
			}
		})
	}
}

func TestWrongReferenceFailsTheRun(t *testing.T) {
	w, _ := mini(t, "fan")
	w.wantResult = `"not-the-merge-result"`
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "fan", "--seconds", "0.2", "--workdir", t.TempDir()}, &stdout, &stderr, map[string]*workload{"fan": w})
	if code == 0 {
		t.Fatalf("exit code 0 with a wrong reference\n%s", stdout.String())
	}
	res := lastResult(t, stdout.String())
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Errorf("result %+v, want every attempted session failed", res)
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// specMetrics reads the metric lists of the repository's
// BENCHMARK.json.
func specMetrics(t *testing.T) (spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics requires res to report exactly the listed metrics, each
// in its listed unit.
func checkMetrics(t *testing.T, res result, want []specMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("missing metric %s", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
}

// lastResult decodes the result line a run printed last.
func lastResult(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout)
	}
	return res
}

func TestUntracedRunPrintsEveryEndToEndMetric(t *testing.T) {
	w, _ := mini(t, "fan")
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "fan", "--seconds", "0.3", "--workdir", t.TempDir()}, &stdout, &stderr, map[string]*workload{"fan": w})
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	res := lastResult(t, stdout.String())
	checkMetrics(t, res, specMetrics(t).EndToEnd)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("result %+v", res)
	}
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %g, want > 0", name, m.Value)
		}
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	w, _ := mini(t, "remote")
	dir := t.TempDir()
	traceFile := dir + "/trace.json"
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "remote", "--seconds", "0.4", "--trace", "1", "--workdir", dir, "--trace-out", traceFile},
		&stdout, &stderr, map[string]*workload{"remote": w})
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	res := lastResult(t, stdout.String())
	checkMetrics(t, res, specMetrics(t).PerLayer)
	if res.Metrics["transport.frames_sent"].Value == 0 {
		t.Error("remote workload sent no transport frames")
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
			if _, ok := ev.Args["parent"]; !ok {
				t.Errorf("span %s has no parent", ev.Name)
			}
		}
	}
	for _, n := range []string{"workload remote", "session", "core.submit", "core.wait", "layer probes", "workflow.translate_ms", "transport.roundtrip_us"} {
		if !names[n] {
			t.Errorf("trace lacks %q spans", n)
		}
	}
}
