package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"ginflow/internal/obs"
)

// cpuLayers are the layers whose self CPU the traced run reports, in
// the order they print. Repo packages outside this list (executor,
// failure, montage, ...) are summed into other.self_cpu_s.
var cpuLayers = []string{"cluster", "workflow", "hocl", "hoclflow", "agent", "mq", "space", "journal", "core", "transport", "obs", "trace", runtimeLayer}

// counterMetrics maps per-layer count metrics to the counter families
// they read. Each is reported per session of the traced window.
var counterMetrics = []struct{ name, family string }{
	{"hocl.reduce_calls", "ginflow_hocl_reduce_calls_total"},
	{"hocl.rule_firings", "ginflow_hocl_rule_firings_total"},
	{"hocl.guard_rejections", "ginflow_hocl_guard_rejections_total"},
	{"mq.published", "ginflow_mq_published_total"},
	{"mq.deliveries", "ginflow_mq_deliveries_total"},
	{"mq.batches", "ginflow_mq_delivery_batches_total"},
	{"agent.dedup_suppressed", "ginflow_dedup_suppressed_total"},
	{"agent.retry_attempts", "ginflow_retry_attempts_total"},
	{"journal.appends", "ginflow_journal_appends_total"},
	{"journal.fsyncs", "ginflow_journal_fsyncs_total"},
	{"journal.rotations", "ginflow_journal_rotations_total"},
	{"transport.frames_sent", "ginflow_transport_frames_sent_total"},
	{"transport.frames_received", "ginflow_transport_frames_received_total"},
	{"transport.reconnects", "ginflow_transport_reconnects_total"},
	{"core.agents_deployed", "ginflow_agents_deployed_total"},
}

// counterTotals sums every counter family of a registry over its
// label sets.
func counterTotals(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, f := range reg.Snapshot() {
		if f.Type != "counter" {
			continue
		}
		for _, s := range f.Series {
			out[f.Name] += s.Value
		}
	}
	return out
}

// countedLoop runs one closed loop, closes e, and returns the counter
// increments the loop caused: on obs.Default() (HOCL and transport
// counters) and on the private registry of every Manager the loop used.
// Counters are read once those Managers have closed, so deliveries
// still draining at Wait's return are counted.
func (b *bench) countedLoop(e *env, o loopOpts) (loopResult, map[string]float64, error) {
	// A shared Manager's registry already counts the warm-up and any
	// earlier window; only this loop's increments are reported.
	before := map[string]float64{}
	if e != nil {
		before = counterTotals(e.reg)
	}
	for k, v := range counterTotals(obs.Default()) {
		before[k] += v
	}
	var (
		mu   sync.Mutex
		regs []*obs.Registry
	)
	o.onClose = func(r *obs.Registry) {
		mu.Lock()
		regs = append(regs, r)
		mu.Unlock()
	}
	loop := b.runLoop(e, o)
	if e != nil {
		if err := e.close(); err != nil {
			return loop, nil, err
		}
		regs = append(regs, e.reg)
	}
	counts := counterTotals(obs.Default())
	for k, v := range before {
		counts[k] -= v
	}
	for _, r := range regs {
		for k, v := range counterTotals(r) {
			counts[k] += v
		}
	}
	return loop, counts, nil
}

// traced measures the per-layer metrics. The run has two halves on one
// set-up: an untraced window, then a traced window of the same length
// under the CPU profiler, with spans and event streams on. Counters are
// read once every Manager of the traced window has closed; the layer
// probes run last, outside both windows.
func traced(w *workload, o options) (result, []string, error) {
	sp := newSpans()
	root := sp.begin("workload "+w.name, 0, 0)
	t0 := time.Now()
	b, e, _, err := setupRun(w, o)
	sp.add("setup", root, 0, t0, time.Now())
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	half := seconds(o.seconds / 2)

	plainSpan := sp.begin("untraced window", root, 0)
	plain := b.runLoop(e, loopOpts{duration: half})
	sp.finish(plainSpan)

	proc := sampleProcess()
	peak := startPeakSampler()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		e.close()
		return result{}, nil, err
	}
	tracedSpan := sp.begin("traced window", root, 0)
	loop, counts, err := b.countedLoop(e, loopOpts{duration: half, events: true, spans: sp, parent: tracedSpan})
	sp.finish(tracedSpan)
	pprof.StopCPUProfile()
	_, goroutines := peak.stop()
	after := sampleProcess()
	if err != nil {
		return result{}, nil, err
	}

	prbSpan := sp.begin("layer probes", root, 0)
	prb, err := (&probeSet{w: w, seed: o.seed, def: b.def, workdir: o.workdir, sp: sp, parent: prbSpan}).run()
	sp.finish(prbSpan)
	sp.finish(root)
	if err != nil {
		return result{}, nil, err
	}

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return result{}, nil, err
	}
	split := attribute(samples)

	n := float64(max(loop.attempted, 1))
	m := map[string]metric{}
	listed := map[string]bool{}
	for _, l := range cpuLayers {
		m[l+".self_cpu_s"] = metric{split.self[l] / n, "s/session"}
		listed[l] = true
	}
	other := 0.0
	for l, v := range split.self {
		if !listed[l] {
			other += v
		}
	}
	m["other.self_cpu_s"] = metric{other / n, "s/session"}
	m["hocl.parse_cpu_s"] = metric{split.parse / n, "s/session"}
	m["hocl.reduce_cpu_s"] = metric{split.reduce / n, "s/session"}
	for _, c := range counterMetrics {
		m[c.name] = metric{counts[c.family] / n, "count/session"}
	}
	m["hocl.firings_per_reduce"] = metric{ratio(counts["ginflow_hocl_rule_firings_total"], counts["ginflow_hocl_reduce_calls_total"]), "ratio"}
	m["mq.msgs_per_batch"] = metric{ratio(counts["ginflow_mq_deliveries_total"], counts["ginflow_mq_delivery_batches_total"]), "ratio"}
	for name, v := range prb {
		unit := name[strings.LastIndexByte(name, '_')+1:]
		m[name] = metric{v, unit}
	}

	ok := loop.ok()
	var lat, submit, wait, deploy, exec []float64
	for _, s := range ok {
		lat = append(lat, ms(s.latency))
		submit = append(submit, ms(s.submit))
		wait = append(wait, ms(s.wait))
		if s.split {
			deploy = append(deploy, ms(s.deploy))
			exec = append(exec, ms(s.exec))
		}
	}
	var plainLat []float64
	for _, s := range plain.ok() {
		plainLat = append(plainLat, ms(s.latency))
	}
	m["core.submit_ms"] = metric{median(submit), "ms"}
	m["core.wait_ms"] = metric{median(wait), "ms"}
	m["core.deploy_wall_ms"] = metric{median(deploy), "ms"}
	m["core.exec_wall_ms"] = metric{median(exec), "ms"}
	m["core.goroutines_max"] = metric{float64(goroutines), "count"}
	m["runtime.gc_cycles"] = metric{float64(after.gcs-proc.gcs) / n, "count/session"}
	m["runtime.gc_pause_ms"] = metric{ms(after.gcPause-proc.gcPause) / n, "ms/session"}
	m["bench.trace_overhead_frac"] = metric{ratio(median(lat)-median(plainLat), median(plainLat)), "ratio"}

	if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
		return result{}, nil, err
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		return result{}, nil, err
	}
	if err := sp.writeChrome(f); err != nil {
		f.Close()
		return result{}, nil, err
	}
	if err := f.Close(); err != nil {
		return result{}, nil, err
	}

	attempted := plain.attempted + loop.attempted
	failed := plain.failed + loop.failed
	notes := []string{
		fmt.Sprintf("sessions untraced=%d traced=%d failed=%d split=%d/%d profile_cpu_s=%.3f trace=%s",
			plain.attempted, loop.attempted, failed, len(deploy), len(ok), split.total, o.traceOut),
		"cpu shares: " + shares(split),
	}
	for _, r := range []loopResult{plain, loop} {
		if r.firstErr != nil {
			notes = append(notes, "first failure: "+r.firstErr.Error())
		}
	}
	return result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: m}, notes, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// shares renders each layer's share of the profiled CPU, largest first.
func shares(c cpuSplit) string {
	type kv struct {
		k string
		v float64
	}
	var list []kv
	for k, v := range c.self {
		list = append(list, kv{k, v})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].v > list[j].v })
	var parts []string
	for _, e := range list {
		parts = append(parts, fmt.Sprintf("%s=%.1f%%", e.k, 100*ratio(e.v, c.total)))
	}
	parts = append(parts, fmt.Sprintf("(hocl parse=%.1f%% reduce=%.1f%%)", 100*ratio(c.parse, c.total), 100*ratio(c.reduce, c.total)))
	return strings.Join(parts, " ")
}
