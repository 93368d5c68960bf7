package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
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
	c.Yield()
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
