package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/core"
	"ginflow/internal/obs"
	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// sample is one session as a client saw it.
type sample struct {
	latency time.Duration // Submit call to Wait return
	submit  time.Duration // the Submit call alone
	wait    time.Duration // the Wait call alone
	// deploy/exec split the latency at the first service invocation
	// seen on Handle.Events; valid only when split is set (traced
	// sessions whose event stream dropped nothing).
	deploy, exec time.Duration
	split        bool
	tasks        int
	model        float64 // the report's TotalTime, model seconds
	err          error
}

// loopOpts bounds one closed loop: clients stop submitting once
// `duration` has passed or after `perClient` sessions each, whichever
// comes first (a zero bound is no bound).
type loopOpts struct {
	duration  time.Duration
	perClient int
	// events subscribes to each session's event stream for the
	// deploy/exec split.
	events bool
	spans  *spans
	parent int
	// onClose receives each fresh-Manager environment's metrics
	// registry after its Manager closed.
	onClose func(*obs.Registry)
}

// loopResult is what one closed loop produced.
type loopResult struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
}

// ok returns the completed, checked sessions.
func (r *loopResult) ok() []sample {
	var out []sample
	for _, s := range r.samples {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

// bench holds the per-run constants a loop needs.
type bench struct {
	w       *workload
	seed    int64
	workdir string
	def     *workflow.Definition
	// wantTotal is the pinned model time of def (0: unchecked).
	wantTotal float64
	// services is built once: registries are safe for concurrent use,
	// and building one per session would time the benchmark's own work.
	services *agent.Registry
}

// runLoop drives the workload's closed loop. A shared-Manager workload
// submits every session to e; a fresh-Manager workload ignores e and
// builds and closes a Manager around each session.
func (b *bench) runLoop(e *env, o loopOpts) loopResult {
	var (
		mu  sync.Mutex
		res loopResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 1; c <= b.w.clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for n := 0; o.perClient == 0 || n < o.perClient; n++ {
				if o.duration > 0 && time.Since(start) >= o.duration {
					return
				}
				s := b.session(e, client, o)
				mu.Lock()
				res.samples = append(res.samples, s)
				res.attempted++
				if s.err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = s.err
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// session runs and checks one session; for a fresh-Manager workload it
// also builds and closes the Manager around it.
func (b *bench) session(e *env, client int, o loopOpts) sample {
	if !b.w.fresh {
		return b.submitWait(e.mgr, client, o, o.parent)
	}
	parent := o.spans.begin("session-env", o.parent, client)
	defer o.spans.finish(parent)
	t0 := time.Now()
	fe, err := newEnv(b.w, b.seed, b.workdir)
	o.spans.add("core.new", parent, client, t0, time.Now())
	if err != nil {
		return sample{err: err}
	}
	s := b.submitWait(fe.mgr, client, o, parent)
	t1 := time.Now()
	if err := fe.close(); err != nil && s.err == nil {
		s.err = err
	}
	o.spans.add("core.close", parent, client, t1, time.Now())
	if o.onClose != nil {
		o.onClose(fe.reg)
	}
	return s
}

// submitWait submits the workload's definition, waits for the report
// and checks it.
func (b *bench) submitWait(mgr *core.Manager, client int, o loopOpts, parent int) sample {
	ctx := context.Background()
	t0 := time.Now()
	sess, err := mgr.Submit(ctx, b.def, b.services)
	t1 := time.Now()
	if err != nil {
		return sample{err: err}
	}
	var firstInvoke time.Time
	drained := make(chan struct{})
	if o.events {
		evs := sess.Events()
		go func() {
			defer close(drained)
			for ev := range evs {
				if ev.Kind == trace.ServiceInvoked && firstInvoke.IsZero() {
					firstInvoke = time.Now()
				}
			}
		}()
	} else {
		close(drained)
	}
	rep, err := sess.Wait(ctx)
	t2 := time.Now()
	<-drained
	s := sample{latency: t2.Sub(t0), submit: t1.Sub(t0), wait: t2.Sub(t1), tasks: len(b.def.Tasks)}
	if rep != nil {
		s.model = rep.TotalTime
	}
	if err == nil {
		err = b.w.check(rep, len(b.def.Tasks), b.wantTotal)
	}
	if err != nil {
		s.err = fmt.Errorf("session %d: %w", sess.ID(), err)
	}
	if o.events && !firstInvoke.IsZero() && sess.EventsDropped() == 0 {
		s.split = true
		s.deploy = firstInvoke.Sub(t0)
		s.exec = t2.Sub(firstInvoke)
	}
	if o.spans != nil {
		sp := o.spans.add("session", parent, client, t0, t2)
		o.spans.add("core.submit", sp, client, t0, t1)
		o.spans.add("core.wait", sp, client, t1, t2)
		if s.split {
			o.spans.add("deploy", sp, client, t0, firstInvoke)
			o.spans.add("exec", sp, client, firstInvoke, t2)
		}
	}
	return s
}

// setup builds the shared Manager and warms it (and the Go runtime) up
// with the workload's warm-up sessions. A fresh-Manager workload warms
// up on throwaway Managers and returns a nil env, since each of its
// timed sessions builds its own Manager. Warm-up sessions are not
// counted: a session that fails its checks fails in the timed window
// too, where it is counted.
func (b *bench) setup() (*env, error) {
	warm := *b
	if b.w.warmDef != nil {
		warm.def, warm.wantTotal = b.w.warmDef(), 0
	}
	var e *env
	if !b.w.fresh {
		var err error
		if e, err = newEnv(b.w, b.seed, b.workdir); err != nil {
			return nil, err
		}
	}
	warm.runLoop(e, loopOpts{perClient: b.w.warmups})
	return e, nil
}
