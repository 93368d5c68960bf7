package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestVirtualSleepOrder: concurrent participants sleeping distinct
// durations wake in deadline order, and Now() tracks each deadline
// exactly.
func TestVirtualSleepOrder(t *testing.T) {
	c := NewVirtualClock()
	var mu sync.Mutex
	var order []float64
	var wg sync.WaitGroup
	c.Enter()
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			c.Sleep(d)
			mu.Lock()
			order = append(order, c.Now())
			mu.Unlock()
		})
	}
	c.Exit()
	wg.Wait()
	want := []float64{1, 2, 3, 4, 5}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
	if got := c.Now(); got != 5 {
		t.Fatalf("Now() = %v, want 5", got)
	}
}

// TestVirtualTieBreak: equal deadlines fire in timer-registration
// order, which (siblings spawned in a deterministic order) is the spawn
// order.
func TestVirtualTieBreak(t *testing.T) {
	c := NewVirtualClock()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	c.Enter()
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			c.Sleep(7) // all identical deadlines
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	c.Exit()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("tie order = %v, want ascending spawn order", order)
		}
	}
}

// TestVirtualSleepCtxCancel: a context cancelled by another participant
// wakes the sleeper before model time advances past the cancellation
// instant.
func TestVirtualSleepCtxCancel(t *testing.T) {
	c := NewVirtualClock()
	ctx, cancel := context.WithCancel(context.Background())
	var wokeAt float64
	var err error
	var wg sync.WaitGroup
	c.Enter()
	wg.Add(1)
	c.Go(func() {
		defer wg.Done()
		err = c.SleepCtx(ctx, 100)
		wokeAt = c.Now()
	})
	c.Go(func() {
		c.Sleep(3)
		cancel()
	})
	c.Exit()
	wg.Wait()
	if err != context.Canceled {
		t.Fatalf("SleepCtx error = %v, want context.Canceled", err)
	}
	if wokeAt != 3 {
		t.Fatalf("woke at model time %v, want 3 (the cancellation instant)", wokeAt)
	}
}

// TestVirtualCond: Broadcast wakes waiters in wait order; a ctx-ended
// wait returns the ctx error.
func TestVirtualCond(t *testing.T) {
	c := NewVirtualClock()
	cond := c.NewCond()
	if cond == nil {
		t.Fatal("NewCond returned nil on a virtual clock")
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	c.Enter()
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			if err := cond.Wait(context.Background()); err != nil {
				t.Errorf("Wait: %v", err)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	c.Go(func() {
		c.Sleep(1)
		cond.Broadcast()
	})
	c.Exit()
	wg.Wait()
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("broadcast wake order = %v, want [0 1 2 3]", order)
	}
}

// TestRealModeAPIsAreNoops: the participant API must be callable
// unconditionally on a real clock.
func TestRealModeAPIsAreNoops(t *testing.T) {
	c := NewClock(time.Microsecond)
	if c.Virtual() {
		t.Fatal("real clock reports Virtual()")
	}
	c.Enter()
	c.AdvanceTo(99)
	if cond := c.NewCond(); cond != nil {
		t.Fatal("NewCond on a real clock should return nil")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	c.Go(func() { wg.Done() })
	wg.Wait()
	c.Exit()
}

// TestVirtualAdvanceTo drives the participant-less use (test clocks
// that were previously ad-hoc fakes).
func TestVirtualAdvanceTo(t *testing.T) {
	c := NewVirtualClock()
	c.AdvanceTo(2.5)
	c.AdvanceTo(1.0) // backwards: ignored
	if got := c.Now(); got != 2.5 {
		t.Fatalf("Now() = %v, want 2.5", got)
	}
}

// wakeRec is one observed timer firing.
type wakeRec struct {
	id        int
	at        float64 // model time observed at wake
	cancelled bool
}

// runVirtualSchedule runs one randomized schedule of sleepers —
// including equal deadlines, zero and negative durations, and
// mid-flight context cancellations — and returns the observed wake
// sequence. Deterministic in seed.
func runVirtualSchedule(t *testing.T, seed int64, n int) []wakeRec {
	t.Helper()
	c := NewVirtualClock()
	rng := rand.New(rand.NewSource(seed))

	type sleeper struct {
		id     int
		d      float64
		cancel bool    // will be cancelled mid-flight…
		cat    float64 // …at this model time (< d)
	}
	var plan []sleeper
	for i := 0; i < n; i++ {
		s := sleeper{id: i}
		switch rng.Intn(5) {
		case 0: // duplicate deadline bucket
			s.d = float64(1 + rng.Intn(3))
		case 1: // zero / negative
			s.d = float64(-rng.Intn(2))
		default:
			s.d = rng.Float64() * 10
		}
		if s.d > 1 && rng.Intn(3) == 0 {
			s.cancel = true
			s.cat = s.d * rng.Float64() * 0.9
		}
		plan = append(plan, s)
	}

	var mu sync.Mutex
	var got []wakeRec
	var wg sync.WaitGroup
	c.Enter()
	for _, s := range plan {
		s := s
		ctx := context.Context(context.Background())
		if s.cancel {
			cctx, cancel := context.WithCancel(ctx)
			ctx = cctx
			c.Go(func() {
				c.Sleep(s.cat)
				cancel()
			})
		}
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			err := c.SleepCtx(ctx, s.d)
			mu.Lock()
			got = append(got, wakeRec{id: s.id, at: c.Now(), cancelled: err != nil})
			mu.Unlock()
		})
	}
	c.Exit()
	wg.Wait()
	return got
}

// TestVirtualScheduleProperty: for many random seeds, wakes occur in
// nondecreasing model time, uncancelled sleepers wake exactly at their
// deadline, and the whole sequence is bit-identical across two runs of
// the same seed.
func TestVirtualScheduleProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		a := runVirtualSchedule(t, seed, 40)
		b := runVirtualSchedule(t, seed, 40)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two runs diverged:\n%v\n%v", seed, a, b)
		}
		last := -1.0
		for i, w := range a {
			if w.at < last {
				t.Fatalf("seed %d: wake %d at %v before previous %v", seed, i, w.at, last)
			}
			last = w.at
		}
	}
}

// FuzzVirtualSchedule feeds arbitrary seeds/sizes through the same
// property.
func FuzzVirtualSchedule(f *testing.F) {
	f.Add(int64(42), uint8(20))
	f.Add(int64(7), uint8(3))
	f.Add(int64(-1), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		size := int(n%64) + 1
		a := runVirtualSchedule(t, seed, size)
		b := runVirtualSchedule(t, seed, size)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d size %d: runs diverged", seed, size)
		}
		last := -1.0
		for _, w := range a {
			if w.at < last {
				t.Fatalf("seed %d: nonmonotone wake at %v after %v", seed, w.at, last)
			}
			last = w.at
		}
	})
}

// TestVirtualCancelWakesInRegistrationOrder: waiters parked on several
// contexts, registered interleaved and cancelled together, wake in
// global registration order — the sweep merges its per-context
// buckets — and waiters on a context that never ends stay parked.
func TestVirtualCancelWakesInRegistrationOrder(t *testing.T) {
	c := NewVirtualClock()
	cond := c.NewCond()
	const nctx, n = 4, 24
	ctxs := make([]context.Context, nctx)
	cancels := make([]context.CancelFunc, nctx)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(context.Background())
	}
	defer cancels[nctx-1]()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	c.Enter()
	for i := 0; i < n; i++ {
		i := i
		ctx := ctxs[i%nctx]
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				err = c.SleepCtx(ctx, 100)
			} else {
				err = cond.Wait(ctx)
			}
			if (err != nil) != (i%nctx != nctx-1) {
				t.Errorf("waiter %d woke with %v", i, err)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	c.Go(func() {
		c.Sleep(1)
		// Cancel out of registration order: the wake order must not care.
		for _, k := range []int{2, 0, 1} {
			cancels[k]()
		}
		c.Sleep(200) // past every sleeper's deadline
		cond.Broadcast()
	})
	c.Exit()
	wg.Wait()
	var want []int
	for i := 0; i < n; i++ {
		if i%nctx != nctx-1 {
			want = append(want, i)
		}
	}
	for i := 0; i < n; i++ {
		if i%nctx == nctx-1 && i%2 == 0 {
			want = append(want, i) // uncancelled sleepers fire at 100
		}
	}
	for i := 0; i < n; i++ {
		if i%nctx == nctx-1 && i%2 == 1 {
			want = append(want, i) // uncancelled Cond waiters: the broadcast
		}
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
}

// intrBuckets snapshots the scheduler's interruptible index: entries
// and live count per bucket.
func intrBuckets(c *Clock) (entries, live []int) {
	c.v.mu.Lock()
	defer c.v.mu.Unlock()
	for _, b := range c.v.intr {
		entries = append(entries, len(b.ws))
		live = append(live, b.live)
	}
	return entries, live
}

// TestVirtualBucketStaysCompact: many Wait/Broadcast cycles under one
// context that never ends leave the context's bucket holding O(live)
// entries, not one per wait ever made.
func TestVirtualBucketStaysCompact(t *testing.T) {
	c := NewVirtualClock()
	cond := c.NewCond()
	ctx, cancel := context.WithCancel(context.Background())
	const waiters, cycles = 5, 400
	var wg sync.WaitGroup
	stop := false
	c.Enter()
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			for !stop {
				if err := cond.Wait(ctx); err != nil {
					t.Errorf("Wait: %v", err)
					return
				}
			}
		})
	}
	wg.Add(1)
	c.Go(func() { // a live sleeper keeps the bucket alive throughout
		defer wg.Done()
		if err := c.SleepCtx(ctx, 1e9); err != context.Canceled {
			t.Errorf("sleeper woke with %v, want context.Canceled", err)
		}
	})
	c.Go(func() {
		for j := 0; j < cycles; j++ {
			c.Sleep(1)
			cond.Broadcast()
			entries, live := intrBuckets(c)
			if len(entries) != 1 {
				t.Errorf("cycle %d: %d buckets, want 1", j, len(entries))
				break
			}
			if entries[0] > 2*live[0]+bucketSlack {
				t.Errorf("cycle %d: bucket holds %d entries for %d live waiters", j, entries[0], live[0])
				break
			}
		}
		stop = true
		c.Sleep(1)
		cond.Broadcast()
		cancel()
	})
	c.Exit()
	wg.Wait()
	if entries, _ := intrBuckets(c); len(entries) != 0 {
		t.Fatalf("%d buckets left after the run, want 0", len(entries))
	}
}

// TestVirtualBucketDroppedWhenAllWoke: a context whose waiters all woke
// by timer or broadcast, without ever ending, leaves no bucket behind.
func TestVirtualBucketDroppedWhenAllWoke(t *testing.T) {
	c := NewVirtualClock()
	cond := c.NewCond()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	c.Enter()
	for i := 0; i < 6; i++ {
		i := i
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				err = c.SleepCtx(ctx, float64(i+1))
			} else {
				err = cond.Wait(ctx)
			}
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
		})
	}
	c.Go(func() {
		c.Sleep(3)
		if entries, _ := intrBuckets(c); len(entries) != 1 {
			t.Errorf("%d buckets mid-run, want 1", len(entries))
		}
		cond.Broadcast()
	})
	c.Exit()
	wg.Wait()
	if entries, _ := intrBuckets(c); len(entries) != 0 {
		t.Fatalf("%d buckets left after every waiter woke, want 0", len(entries))
	}
}

// TestVirtualIdlePollTearsDownStall: a run stalled on a Cond nobody
// will broadcast is torn down when a real-time deadline ends its
// context — the idle poll notices without any participant running.
func TestVirtualIdlePollTearsDownStall(t *testing.T) {
	c := NewVirtualClock()
	cond := c.NewCond()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	errc := make(chan error, 1)
	c.Enter()
	c.Go(func() { errc <- cond.Wait(ctx) })
	c.Exit()
	select {
	case err := <-errc:
		if err != context.DeadlineExceeded {
			t.Fatalf("stalled Wait returned %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled run was never torn down")
	}
}

// BenchmarkVirtualAdvance measures one model-time advance with many
// Cond waiters parked on one never-ending context (a session's agents
// between messages). The cancellation sweep costs one select per
// distinct context, so ns/op stays flat in the waiter count.
func BenchmarkVirtualAdvance(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("waiters=%d", n), func(b *testing.B) {
			c := NewVirtualClock()
			cond := c.NewCond()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			c.Enter()
			for i := 0; i < n; i++ {
				wg.Add(1)
				c.Go(func() {
					defer wg.Done()
					_ = cond.Wait(ctx)
				})
			}
			wg.Add(1)
			c.Go(func() { // runs after every waiter has parked
				defer wg.Done()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Sleep(1)
				}
				b.StopTimer()
				cond.Broadcast()
			})
			c.Exit()
			wg.Wait()
		})
	}
}

// outsideWorkload runs two worker participants — sleepers that log
// each wake and meet on a Cond — beside a harness participant that
// drives an outside goroutine, one that never enters the schedule,
// through Sleep, SleepCtx and Cond.Wait. Every outside block starts
// while the harness holds the token at a known model time, and the
// harness is parked right behind each wake (a tie timer, or the next
// place in the Cond's wait order) so model time stands still until the
// outside goroutine has read Now(). Without outside the harness keeps
// the same schedule and skips the hand-offs. It returns the workers'
// wake log and the outside goroutine's wake times.
func outsideWorkload(t *testing.T, outside bool) (log []string, outWakes []float64) {
	t.Helper()
	c := NewVirtualClock()
	work, ocond, hcond := c.NewCond(), c.NewCond(), c.NewCond()
	octx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var active atomic.Int32
	var wg sync.WaitGroup
	run := func(name string, fn func(ctx context.Context, mark func())) {
		wg.Add(1)
		c.GoCtx(context.Background(), func(ctx context.Context) {
			defer wg.Done()
			mark := func() {
				if n := active.Add(1); n != 1 {
					t.Errorf("%s runs beside %d other participant(s): the token was stolen", name, n-1)
				}
				runtime.Gosched()
				active.Add(-1)
			}
			mark()
			fn(ctx, mark)
		})
	}
	logWake := func(ctx context.Context, who string) {
		log = append(log, fmt.Sprintf("%s@%v", who, c.Now()))
	}

	// The outside goroutine blocks once per step and reports the model
	// time it sees right after each wake.
	steps := make(chan func(), 1)
	report := make(chan float64)
	go func() {
		for step := range steps {
			step()
			report <- c.Now()
		}
	}()
	seq := func() uint64 {
		c.v.mu.Lock()
		defer c.v.mu.Unlock()
		return c.v.seq
	}
	// startOutside hands the outside goroutine its next block and waits
	// until the block is registered: the caller holds the token, so model
	// time cannot move meanwhile.
	startOutside := func(step func()) {
		if !outside {
			return
		}
		before := seq()
		steps <- step
		for seq() == before {
			runtime.Gosched()
		}
	}
	awaitOutside := func() {
		if outside {
			outWakes = append(outWakes, <-report)
		}
	}

	run("w1", func(ctx context.Context, mark func()) {
		for _, d := range []float64{1, 1.5, 2, 0.5, 1} {
			_ = c.SleepCtx(ctx, d)
			mark()
			logWake(ctx, "w1")
			work.Broadcast()
		}
	})
	run("w2", func(ctx context.Context, mark func()) {
		for i := 0; i < 4; i++ {
			_ = work.Wait(ctx)
			mark()
			logWake(ctx, "w2")
			_ = c.SleepCtx(ctx, 0.25)
			mark()
			logWake(ctx, "w2")
		}
	})
	run("h2", func(ctx context.Context, mark func()) {
		_ = hcond.Wait(ctx)
		mark()
		_ = ocond.Wait(ctx) // queued right behind the outside waiter
		mark()
		awaitOutside()
	})
	run("h", func(ctx context.Context, mark func()) {
		_ = c.SleepCtx(ctx, 1.25)
		mark()
		startOutside(func() { c.Sleep(2) })
		_ = c.SleepCtx(ctx, 2) // ties at 3.25, behind the outside sleeper
		mark()
		awaitOutside()
		startOutside(func() { _ = c.SleepCtx(octx, 1.5) })
		_ = c.SleepCtx(ctx, 1.5) // ties at 4.75
		mark()
		awaitOutside()
		startOutside(func() { _ = ocond.Wait(octx) })
		hcond.Broadcast()
		_ = c.SleepCtx(ctx, 0.5)
		mark()
		ocond.Broadcast() // at 5.25: the outside waiter, then h2
	})
	wg.Wait()
	close(steps)

	c.v.mu.Lock()
	defer c.v.mu.Unlock()
	if c.v.holder != nil || c.v.rhead != len(c.v.ready) {
		t.Errorf("after the run: holder %p, %d ready — the token leaked", c.v.holder, len(c.v.ready)-c.v.rhead)
	}
	return log, outWakes
}

// TestVirtualOutsideCaller: a goroutine outside the schedule blocking in
// Sleep, SleepCtx and Cond.Wait while participants run wakes at exactly
// the model times its blocks ask for, and leaves the participants'
// timestamps as they are without it: it neither steals the token from
// a running participant nor keeps it after its wake.
func TestVirtualOutsideCaller(t *testing.T) {
	var alone, log []string
	var wakes []float64
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		alone, _ = outsideWorkload(t, false)
		log, wakes = outsideWorkload(t, true)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("the schedule wedged: the run token was leaked")
	}
	if !reflect.DeepEqual(log, alone) {
		t.Errorf("participant wakes changed by the outside caller:\n with: %v\n without: %v", log, alone)
	}
	if want := []float64{3.25, 4.75, 5.25}; !reflect.DeepEqual(wakes, want) {
		t.Errorf("outside caller woke at %v, want %v", wakes, want)
	}
}

// TestVirtualForeignHandlePanics: a blocking call with the handle of a
// participant that does not hold the run token — here a parent's
// context used by its child — panics instead of running two
// participants at once, and the schedule carries on.
func TestVirtualForeignHandlePanics(t *testing.T) {
	c := NewVirtualClock()
	var r any
	recovered, done := make(chan struct{}), make(chan struct{})
	c.GoCtx(context.Background(), func(parent context.Context) {
		c.GoCtx(context.Background(), func(context.Context) {
			defer func() {
				r = recover()
				close(recovered)
			}()
			_ = c.SleepCtx(parent, 1)
		})
		_ = c.SleepCtx(parent, 5)
		close(done)
	})
	for _, ch := range []<-chan struct{}{recovered, done} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("the schedule wedged after the foreign-handle call")
		}
	}
	if msg, _ := r.(string); !strings.Contains(msg, "does not hold the run token") {
		t.Fatalf("foreign handle: recovered %v, want the holder panic", r)
	}
	if now := c.Now(); now != 5 {
		t.Fatalf("Now() = %v after the panic, want 5", now)
	}
}
