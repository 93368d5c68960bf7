package cluster

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"time"
)

// Virtual time — a discrete-event scheduler behind the model Clock.
//
// In virtual mode the clock never sleeps real time. Instead, every
// goroutine that takes part in a run is a *participant* in a
// cooperative, single-run-token schedule: exactly one participant
// executes at any instant, and every blocking boundary (modelled
// sleeps, broker delivery waits, space condition waits) releases the
// token back to the scheduler. When the ready queue is empty the
// scheduler advances Now() to the earliest pending timer deadline and
// fires it — ties break by timer registration order — so the whole
// interleaving, and therefore every model-time stamp a run reports, is
// a deterministic function of the call sequence.
//
// The token discipline is what makes this sound where a plain waiter
// registry would not be: a goroutine woken through a Go channel
// rendezvous is invisible to any registry and would leave a window in
// which the system looks quiescent while work is still runnable,
// advancing time early and nondeterministically. Here nothing runs
// without holding the token, so "ready queue empty" *is* quiescence.
// The cost of the discipline is that an accounting mistake manifests
// as a deterministic hang (debuggable), never as a flaky timestamp.

// Participant states. A participant blocks on one thing at a time: a
// block parks it on the timer heap or a Cond (plus, optionally, its
// context's interruptible bucket), and it is granted the run token
// exactly once per block.
const (
	stBlocked = iota // parked on a timer deadline or a Cond
	stQueued         // moved to the ready queue, awaiting the token
	stGranted        // token sent; the goroutine is (about to be) running
)

// partKey is the context key under which a participant's ctx carries
// its handle.
type partKey struct{}

// vpart is a participant handle. Clock.GoCtx hands it to the spawned
// function as its context: the handle answers Value(partKey{}) with
// itself and delegates everything else (deadline, cancellation, other
// values) to the parent context it was spawned with. Blocking calls
// find it with handleOf and compare it against the scheduler's holder.
//
// The per-block fields are reused by every block, so blocking
// allocates nothing; the heap, Cond and bucket entries a block leaves
// behind are recognised as stale by their sequence number.
type vpart struct {
	context.Context
	v *vsched
	// anon marks a participant started by Clock.Go or Clock.Enter,
	// whose code cannot see its handle: a handle-less call made while it
	// holds the token is taken to be its own.
	anon  bool
	grant chan struct{} // buffered(1); a send transfers the run token

	seq   uint64 // registration order of the current block — the tie-breaker
	state int
	// interrupted reports that the block ended because its context did.
	// Written under the scheduler lock before the grant send, read by the
	// woken goroutine after the grant receive.
	interrupted bool
	bucket      *waitBucket // the ctx.Done() bucket; nil when not interruptible
}

// Value answers the participant key with the handle itself.
func (p *vpart) Value(key any) any {
	if key == (partKey{}) {
		return p
	}
	return p.Context.Value(key)
}

func (v *vsched) newPart(ctx context.Context, anon bool) *vpart {
	return &vpart{Context: ctx, v: v, anon: anon, grant: make(chan struct{}, 1)}
}

// handleOf returns the participant handle ctx carries, or nil.
func handleOf(ctx context.Context) *vpart {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(partKey{}).(*vpart)
	return p
}

// blockRef names one block of a participant; it is live while the
// participant is still parked in that block.
type blockRef struct {
	p   *vpart
	seq uint64
}

func (r blockRef) live() bool { return r.p.state == stBlocked && r.p.seq == r.seq }

// waitBucket holds the interruptible blocks parked on one ctx.Done()
// channel, in registration order. live counts the entries still
// blocked; the rest are stale and compacted away once they outnumber
// the live ones by more than bucketSlack, so a bucket holds O(live)
// entries however many waits cycle through it.
type waitBucket struct {
	done <-chan struct{}
	ws   []blockRef
	live int
}

const bucketSlack = 8

// timerEntry is one timer-heap entry, ordered by (at, seq).
type timerEntry struct {
	at  float64
	seq uint64
	p   *vpart
}

func (a timerEntry) before(b timerEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// vsched is the discrete-event scheduler state shared by one virtual
// Clock and all its participants.
type vsched struct {
	mu     sync.Mutex
	now    float64
	seq    uint64
	ready  []*vpart // FIFO from rhead
	rhead  int
	timers []timerEntry // min-heap by (at, seq)
	// intr indexes the blocks that a context ending can break, one
	// bucket per distinct Done channel; a bucket exists exactly while it
	// has a live block. The buckets are swept every time the scheduler
	// is about to advance model time, and polled on a real timer when
	// the schedule is otherwise idle, so even a stalled run can be torn
	// down by a real-time timeout.
	intr    map[<-chan struct{}]*waitBucket
	idleArm bool // an idle-poll AfterFunc is pending

	// holder is the participant holding the run token, nil while the
	// token is free. The scheduler sets it when it grants the token,
	// under the lock it already holds, so a woken participant runs
	// without re-locking. A blocking call whose ctx carries a handle
	// must come from the holder (anything else panics); a call with no
	// handle belongs to the holder only when the holder is anonymous
	// (Clock.Go, Clock.Enter), and is otherwise an outside caller that
	// joins the schedule for the length of its block and hands the
	// token straight back on wake.
	holder *vpart
}

func newVsched() *vsched { return &vsched{intr: map[<-chan struct{}]*waitBucket{}} }

// grantLocked hands the run token to p.
func (v *vsched) grantLocked(p *vpart) {
	p.state = stGranted
	v.holder = p
	p.grant <- struct{}{}
}

// releaseLocked frees the run token and hands it to the next runnable
// participant. Callers hold v.mu.
func (v *vsched) releaseLocked() {
	v.holder = nil
	v.scheduleLocked()
}

func (v *vsched) popReadyLocked() *vpart {
	p := v.ready[v.rhead]
	v.ready[v.rhead] = nil
	v.rhead++
	switch {
	case v.rhead == len(v.ready):
		v.ready, v.rhead = v.ready[:0], 0
	case v.rhead > len(v.ready)/2 && v.rhead > 64:
		n := copy(v.ready, v.ready[v.rhead:])
		clear(v.ready[n:])
		v.ready, v.rhead = v.ready[:n], 0
	}
	return p
}

func (v *vsched) pushTimerLocked(e timerEntry) {
	h := append(v.timers, e)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	v.timers = h
}

func (v *vsched) popTimerLocked() timerEntry {
	h := v.timers
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = timerEntry{}
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	v.timers = h
	return top
}

// callerLocked resolves who makes a blocking call carrying handle h:
// the holder (h itself, or the anonymous holder when h is nil), or an
// outside caller, which gets a one-off participant and holds == false.
// A handle of another clock counts as none.
func (v *vsched) callerLocked(h *vpart) (p *vpart, holds bool) {
	if h != nil && h.v == v {
		if h != v.holder {
			v.mu.Unlock()
			panic("cluster: virtual-clock block with the handle of a participant that does not hold the run token (a participant's context used from another goroutine?)")
		}
		return h, true
	}
	if v.holder != nil && v.holder.anon {
		return v.holder, true
	}
	return v.newPart(context.Background(), false), false
}

// blockLocked starts a new block for p: a fresh registration sequence
// and cleared per-block state.
func (v *vsched) blockLocked(p *vpart) {
	v.seq++
	p.seq = v.seq
	p.state = stBlocked
	p.interrupted = false
	p.bucket = nil
}

// parkLocked releases the token if p held it, runs the scheduler and
// waits for p's grant; an outside caller hands the token straight back.
// It unlocks v.mu. The error is ctx's when the block was interrupted.
func (v *vsched) parkLocked(ctx context.Context, p *vpart, holds bool) error {
	if holds {
		v.holder = nil
	}
	v.scheduleLocked()
	v.mu.Unlock()
	<-p.grant
	if !holds {
		v.mu.Lock()
		v.releaseLocked()
		v.mu.Unlock()
	}
	if p.interrupted {
		return ctx.Err()
	}
	return nil
}

// interruptibleLocked makes p's current block wakeable by ctx ending.
// A nil or never-ending ctx leaves it uninterruptible.
func (v *vsched) interruptibleLocked(p *vpart, ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	done := ctx.Done()
	b := v.intr[done]
	if b == nil {
		b = &waitBucket{done: done}
		v.intr[done] = b
	}
	b.ws = append(b.ws, blockRef{p, p.seq})
	b.live++
	p.bucket = b
}

// unblockLocked moves a blocked participant to state (stQueued or
// stGranted). Every transition out of stBlocked except the cancellation
// sweep goes through here, keeping the bucket's live count exact.
func (v *vsched) unblockLocked(p *vpart, state int) {
	p.state = state
	b := p.bucket
	if b == nil {
		return
	}
	b.live--
	if b.live == 0 {
		delete(v.intr, b.done)
		return
	}
	if len(b.ws)-b.live > b.live+bucketSlack {
		live := b.ws[:0]
		for _, r := range b.ws {
			if r.live() {
				live = append(live, r)
			}
		}
		clear(b.ws[len(live):])
		b.ws = live
	}
}

// scheduleLocked hands the run token to the next runnable participant:
// ready queue first (FIFO), else the earliest pending timer — advancing
// model time to its deadline. Called with v.mu held.
func (v *vsched) scheduleLocked() {
	for v.holder == nil {
		if v.rhead < len(v.ready) {
			v.grantLocked(v.popReadyLocked())
			return
		}
		// About to advance time: first honour any cancellations that
		// already happened. A canceller necessarily held the token when
		// it called cancel() (context cancellation is synchronous), so
		// every relevant ctx is already Done here — no racing window.
		if v.sweepCancelledLocked() {
			continue
		}
		for len(v.timers) > 0 {
			e := v.popTimerLocked()
			if !(blockRef{e.p, e.seq}).live() {
				continue // cancelled or already woken; heap entry is stale
			}
			if e.at > v.now {
				v.now = e.at
			}
			v.unblockLocked(e.p, stGranted)
			v.grantLocked(e.p)
			return
		}
		// Idle. If interruptible blocks remain, a real-time timeout may
		// still cancel them (a stalled run being torn down) — poll.
		v.armIdlePollLocked()
		return
	}
}

// sweepCancelledLocked moves every interruptible block whose context
// has ended to the ready queue, in registration order, and drops the
// ended contexts' buckets. It costs one select per distinct context,
// not per waiter. Reports whether any participant was moved.
func (v *vsched) sweepCancelledLocked() bool {
	var woken []*vpart
	for done, b := range v.intr {
		select {
		case <-done:
		default:
			continue
		}
		for _, r := range b.ws {
			if r.live() {
				r.p.interrupted = true
				r.p.state = stQueued
				woken = append(woken, r.p)
			}
		}
		delete(v.intr, done)
	}
	if len(woken) == 0 {
		return false
	}
	// Each bucket is already in registration order; merge across them.
	slices.SortFunc(woken, func(a, b *vpart) int { return cmp.Compare(a.seq, b.seq) })
	v.ready = append(v.ready, woken...)
	return true
}

// idlePollInterval is the real-time cadence at which an otherwise idle
// virtual schedule re-checks interruptible waiters. It only matters for
// stalled runs being cancelled from outside (e.g. a real-time session
// timeout); healthy runs never go idle with waiters pending.
const idlePollInterval = 2 * time.Millisecond

func (v *vsched) armIdlePollLocked() {
	if v.idleArm || len(v.intr) == 0 {
		return
	}
	v.idleArm = true
	time.AfterFunc(idlePollInterval, func() {
		v.mu.Lock()
		v.idleArm = false
		if v.holder == nil && v.rhead == len(v.ready) && len(v.timers) == 0 {
			if v.sweepCancelledLocked() {
				v.scheduleLocked()
			} else {
				v.armIdlePollLocked()
			}
		}
		v.mu.Unlock()
	})
}

// start queues p as a new participant. The registration is synchronous
// (so sibling order is the call order); p runs once granted the token.
func (v *vsched) start(p *vpart) {
	v.mu.Lock()
	v.seq++
	p.seq = v.seq
	p.state = stQueued
	v.ready = append(v.ready, p)
	v.scheduleLocked() // no-op when the caller holds the token
	v.mu.Unlock()
}

// enter joins the calling goroutine as an anonymous participant and
// blocks until it is granted the run token.
func (v *vsched) enter() {
	p := v.newPart(context.Background(), true)
	v.start(p)
	<-p.grant
}

// exit releases the run token held by p, which leaves the schedule.
// A nil p is the anonymous holder (Clock.Exit).
func (v *vsched) exit(p *vpart) {
	v.mu.Lock()
	if h := v.holder; h == nil || (p == nil && !h.anon) || (p != nil && h != p) {
		v.mu.Unlock()
		panic("cluster: Exit by a goroutine that does not hold the run token")
	}
	v.releaseLocked()
	v.mu.Unlock()
}

// goRun spawns fn as a new participant whose context is p.
func (v *vsched) goRun(p *vpart, fn func(context.Context)) {
	v.start(p)
	go func() {
		<-p.grant
		fn(p)
		v.exit(p)
	}()
}

// sleep parks the caller until now+seconds, or until ctx ends.
// Non-positive durations return immediately, matching the real clock.
// ctx may be nil (uninterruptible, no handle).
func (v *vsched) sleep(ctx context.Context, seconds float64) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if seconds <= 0 {
		return nil
	}
	h := handleOf(ctx)
	v.mu.Lock()
	p, holds := v.callerLocked(h)
	v.blockLocked(p)
	v.pushTimerLocked(timerEntry{v.now + seconds, p.seq, p})
	v.interruptibleLocked(p, ctx)
	return v.parkLocked(ctx, p, holds)
}

func (v *vsched) nowModel() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// advanceTo moves model time forward by hand. Only meaningful on a
// clock with no active participants (unit tests driving Now() values
// directly); it does not fire timers.
func (v *vsched) advanceTo(t float64) {
	v.mu.Lock()
	if t > v.now {
		v.now = t
	}
	v.mu.Unlock()
}

// Cond is a scheduler-aware condition variable for virtual mode: the
// replacement for channel-based waits, which a single-token schedule
// cannot express (an unbuffered rendezvous needs two goroutines
// runnable at once). Wait releases the run token; Broadcast moves every
// current waiter to the ready queue in wait order. Obtain one from
// Clock.NewCond; in real mode NewCond returns nil and callers keep
// their channel paths.
type Cond struct {
	v       *vsched
	waiters []blockRef
}

// Wait releases the run token and parks the caller until Broadcast (or
// ctx ending, which returns ctx.Err()). The caller should be the token
// holder, and ctx should carry its handle (Clock.GoCtx); a call without
// a handle is the anonymous holder's or an outside caller's (see
// Clock.Sleep). Re-check the guarded condition on return, as with
// sync.Cond.
func (cd *Cond) Wait(ctx context.Context) error {
	v := cd.v
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	h := handleOf(ctx)
	v.mu.Lock()
	p, holds := v.callerLocked(h)
	v.blockLocked(p)
	cd.waiters = append(cd.waiters, blockRef{p, p.seq})
	v.interruptibleLocked(p, ctx)
	return v.parkLocked(ctx, p, holds)
}

// Broadcast wakes every goroutine currently parked in Wait, in the
// order they began waiting. The caller should hold the run token (a
// participant); the wakes take effect when the token is next released.
func (cd *Cond) Broadcast() {
	v := cd.v
	v.mu.Lock()
	for _, r := range cd.waiters {
		if !r.live() {
			continue // already woken by cancellation
		}
		v.unblockLocked(r.p, stQueued)
		v.ready = append(v.ready, r.p)
	}
	clear(cd.waiters)
	cd.waiters = cd.waiters[:0]
	v.scheduleLocked() // no-op when the broadcaster holds the token
	v.mu.Unlock()
}
