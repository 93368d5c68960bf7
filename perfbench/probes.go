package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"ginflow/internal/cluster"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/journal"
	"ginflow/internal/mq"
	"ginflow/internal/transport"
	"ginflow/internal/workflow"
)

// Layer probes time public calls into one layer each, on shapes taken
// from the workload: its own definition, its widest fan-in agent, its
// broker kind and clock, its count of parked agents. A change to a
// layer moves the probe of every workload that shares the shape, so
// the probes say on which workload the change will show.

// probeBudget bounds how long one probe repeats its call; every probe
// makes at least minReps calls and reports the median.
const (
	probeBudget = 300 * time.Millisecond
	minReps     = 3
	maxReps     = 2000
)

// again reports whether a probe that started at start and has made i
// calls makes another.
func again(i int, start time.Time) bool {
	return i < minReps || (i < maxReps && time.Since(start) < probeBudget)
}

// timeReps calls fn until the budget is spent (at least minReps and at
// most maxReps times), records one span per call under parent, and
// returns the median call time in the unit given.
func timeReps(sp *spans, parent int, name string, unit time.Duration, fn func() error) (float64, error) {
	var ds []float64
	start := time.Now()
	for i := 0; again(i, start); i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		t1 := time.Now()
		sp.add(name, parent, 0, t0, t1)
		ds = append(ds, float64(t1.Sub(t0))/float64(unit))
	}
	return median(ds), nil
}

// ruleSink keeps the rules the build probe makes reachable, so the
// compiler cannot drop the calls.
var ruleSink []*hocl.Rule

// probeSet runs every layer probe for one workload.
type probeSet struct {
	w       *workload
	seed    int64
	def     *workflow.Definition
	workdir string
	sp      *spans
	parent  int
}

// run executes the probes and returns their medians by metric name.
func (d *probeSet) run() (map[string]float64, error) {
	out := map[string]float64{}
	var specs []workflow.AgentSpec
	steps := []struct {
		name string
		unit time.Duration
		fn   func() error
	}{
		{"workflow.validate_ms", time.Millisecond, d.def.Validate},
		{"workflow.translate_ms", time.Millisecond, func() (err error) {
			specs, err = d.def.TranslateAgents()
			return err
		}},
		{"hoclflow.rules_build_us", time.Microsecond, func() error {
			ruleSink = []*hocl.Rule{hoclflow.GwSetup(), hoclflow.GwCall(), hoclflow.GwSend(), hoclflow.GwRecv(), hoclflow.GwGc()}
			return nil
		}},
	}
	for _, s := range steps {
		v, err := timeReps(d.sp, d.parent, s.name, s.unit, s.fn)
		if err != nil {
			return nil, err
		}
		out[s.name] = v
	}
	fanin := widestFanIn(specs)
	reduced, err := d.faninReduce(fanin, out)
	if err != nil {
		return nil, err
	}
	if err := d.journalAppend(fanin, reduced, out); err != nil {
		return nil, err
	}
	if err := d.mqRoundtrip(out); err != nil {
		return nil, err
	}
	if err := d.transportRoundtrip(out); err != nil {
		return nil, err
	}
	if err := d.clusterAdvance(out); err != nil {
		return nil, err
	}
	if err := d.managerLifecycle(out); err != nil {
		return nil, err
	}
	return out, nil
}

// managerLifecycle times building and closing an idle Manager of the
// workload's configuration: journal open, listener and worker joins
// included.
func (d *probeSet) managerLifecycle(out map[string]float64) error {
	var news, closes []float64
	start := time.Now()
	for i := 0; again(i, start); i++ {
		t0 := time.Now()
		e, err := newEnv(d.w, d.seed, d.workdir)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("core.new_ms: %w", err)
		}
		err = e.close()
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("core.close_ms: %w", err)
		}
		d.sp.add("core.new_ms", d.parent, 0, t0, t1)
		d.sp.add("core.close_ms", d.parent, 0, t1, t2)
		news = append(news, ms(t1.Sub(t0)))
		closes = append(closes, ms(t2.Sub(t1)))
	}
	out["core.new_ms"] = median(news)
	out["core.close_ms"] = median(closes)
	return nil
}

// widestFanIn returns the agent with the most sources (MERGE on a
// diamond, MIMGTBL on Montage).
func widestFanIn(specs []workflow.AgentSpec) workflow.AgentSpec {
	best := specs[0]
	for _, s := range specs[1:] {
		if len(s.Task.Src) > len(best.Task.Src) {
			best = s
		}
	}
	return best
}

// faninReduce times Engine.Reduce on the fan-in agent's local solution
// once every source's PASS message has arrived: gw_recv fires once per
// source, then gw_setup, gw_call and gw_send. It returns one reduced
// solution for the journal probe.
func (d *probeSet) faninReduce(spec workflow.AgentSpec, out map[string]float64) (*hocl.Solution, error) {
	var last *hocl.Solution
	prepare := func() (*hocl.Solution, *hocl.Engine) {
		sol := spec.Local.CloneSolution()
		for _, src := range spec.Task.Src {
			sol.Add(hoclflow.PassMessage(src, []hocl.Atom{hocl.Str("out-" + src)}))
		}
		eng := hocl.NewEngine()
		eng.Funcs.Register(hoclflow.FnInvoke, func([]hocl.Atom) ([]hocl.Atom, error) {
			return []hocl.Atom{hocl.Str("out-" + spec.Task.Name)}, nil
		})
		eng.Funcs.Register(hoclflow.FnSend, func([]hocl.Atom) ([]hocl.Atom, error) { return nil, nil })
		for name, fn := range spec.Funcs {
			eng.Funcs.Register(name, fn)
		}
		return sol, eng
	}
	var ds []float64
	start := time.Now()
	for i := 0; again(i, start); i++ {
		sol, eng := prepare()
		t0 := time.Now()
		if err := eng.Reduce(sol); err != nil {
			return nil, fmt.Errorf("hocl.fanin_reduce_us: %w", err)
		}
		t1 := time.Now()
		d.sp.add("hocl.fanin_reduce_us", d.parent, 0, t0, t1)
		ds = append(ds, float64(t1.Sub(t0))/float64(time.Microsecond))
		last = sol
	}
	if hoclflow.StatusOf(last) != hoclflow.StatusCompleted {
		return nil, fmt.Errorf("hocl.fanin_reduce_us: %s did not complete: %v", spec.Task.Name, last)
	}
	out["hocl.fanin_reduce_us"] = median(ds)
	return last, nil
}

// journalAppend times SessionWriter.AppendStatus on a fresh journal
// with the payload the fan-in agent pushes once it completes (a full
// status snapshot).
func (d *probeSet) journalAppend(spec workflow.AgentSpec, sol *hocl.Solution, out map[string]float64) error {
	if err := os.MkdirAll(d.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(d.workdir, "journal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		return err
	}
	blob, err := d.def.JSON()
	if err != nil {
		return err
	}
	jw, err := j.CreateSession(journal.SessionMeta{ID: 1, Workflow: blob})
	if err != nil {
		return err
	}
	var atoms []hocl.Atom
	for _, a := range sol.Atoms() {
		if _, isRule := a.(*hocl.Rule); isRule {
			continue
		}
		if tp, ok := a.(hocl.Tuple); ok && len(tp) == 2 && tp[0].Equal(hoclflow.KeyNAME) {
			continue
		}
		atoms = append(atoms, a)
	}
	enc := hoclflow.StatusEncoder{Task: spec.Task.Name}
	payload := enc.Encode(atoms, sol.Inert())
	v, err := timeReps(d.sp, d.parent, "journal.append_us", time.Microsecond, func() error {
		return jw.AppendStatus(payload)
	})
	if cerr := jw.Close(); err == nil {
		err = cerr
	}
	out["journal.append_us"] = v
	return err
}

// mqRoundtrip times Publish -> Next on a fresh broker of the workload's
// kind and clock. On a virtual clock the caller joins the schedule, and
// Next advances model time to the delivery instant.
func (d *probeSet) mqRoundtrip(out map[string]float64) error {
	clock := cluster.NewClock(d.w.scale)
	if d.w.virtual {
		clock = cluster.NewVirtualClock()
	}
	b, err := mq.NewBroker(d.w.broker, clock)
	if err != nil {
		return err
	}
	defer b.Close()
	clock.Enter()
	defer clock.Exit()
	v, err := roundtrips(d.sp, d.parent, "mq.roundtrip_us", b, d.w.virtual)
	out["mq.roundtrip_us"] = v
	return err
}

// transportRoundtrip times Publish -> Next through a loopback
// transport link: a RemoteBroker dialled to a Server fronting a fresh
// broker of the workload's kind. The transport needs the real clock; a
// virtual workload's probe uses the real-clock workloads' scale.
func (d *probeSet) transportRoundtrip(out map[string]float64) error {
	scale := d.w.scale
	if d.w.virtual {
		scale = time.Microsecond
	}
	b, err := mq.NewBroker(d.w.broker, cluster.NewClock(scale))
	if err != nil {
		return err
	}
	defer b.Close()
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerConfig{Broker: b})
	if err != nil {
		return err
	}
	defer srv.Close()
	rb, err := transport.Dial(srv.Addr(), transport.DialConfig{Name: "perfbench"})
	if err != nil {
		return err
	}
	defer rb.Close()
	v, err := roundtrips(d.sp, d.parent, "transport.roundtrip_us", rb, false)
	out["transport.roundtrip_us"] = v
	return err
}

// roundtrips publishes one structural message at a time on a fresh
// subscription and times its delivery: through Next on a virtual clock
// (the caller is a schedule participant), from the drain goroutine's
// batch channel otherwise.
func roundtrips(sp *spans, parent int, name string, b mq.Broker, virtual bool) (float64, error) {
	sub, err := b.Subscribe("perfbench.rt")
	if err != nil {
		return 0, err
	}
	defer sub.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	payload := []hocl.Atom{hoclflow.PassMessage("SRC", []hocl.Atom{hocl.Str("out-src")})}
	return timeReps(sp, parent, name, time.Microsecond, func() error {
		if err := b.PublishAtoms("perfbench.rt", payload); err != nil {
			return err
		}
		var msgs []mq.Message
		var err error
		if virtual {
			msgs, err = sub.Next(ctx)
		} else {
			select {
			case msgs = <-sub.Batches():
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
		if err == nil && len(msgs) != 1 {
			err = fmt.Errorf("got %d messages, want 1", len(msgs))
		}
		return err
	})
}

// clusterAdvance times one model-time advance (Clock.Sleep) on a fresh
// virtual clock while the workload's count of agents sits parked in
// Cond.Wait with a cancellable context, as idle agents do.
func (d *probeSet) clusterAdvance(out map[string]float64) error {
	clock := cluster.NewVirtualClock()
	cond := clock.NewCond()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < d.w.parked; i++ {
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			for ctx.Err() == nil {
				_ = cond.Wait(ctx) // returns ctx.Err() once the probe is done
			}
		})
	}
	clock.Enter() // queued behind the waiters, so they have all parked when it returns
	v, err := timeReps(d.sp, d.parent, "cluster.advance_us", time.Microsecond, func() error {
		clock.Sleep(1)
		return nil
	})
	cancel()
	clock.Exit()
	wg.Wait()
	out["cluster.advance_us"] = v
	return err
}
