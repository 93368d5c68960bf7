// Package space implements GinFlow's shared space: the multiset holding
// "the description of the current status of the workflow" (paper §II,
// §IV-A). Service agents push their local solutions back to the space
// after reductions; the space routes each update "to the right
// sub-solution" and lets clients observe progress and completion.
//
// Status pushes arrive either as full snapshots (a Name:<...> tuple
// replacing the task's recorded sub-solution) or as deltas
// (hoclflow.StatusDelta: only the changed top-level atoms), which the
// space folds into its stored copy. Deltas are anchored by fingerprints;
// one that does not anchor — unknown task, base mismatch — is dropped
// and counted, and the last good state is kept (DESIGN.md "Broker
// internals").
package space

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ginflow/internal/cluster"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/mq"
)

// DefaultTopic is the broker topic the space consumes.
const DefaultTopic = "ginflow.space"

// TopicFor returns the space topic of a namespaced session: ns is a
// per-run topic namespace such as "wf3." (empty selects DefaultTopic).
// Each session of a long-lived manager runs its own Space on its own
// topic, so concurrent runs' status molecules never cross.
func TopicFor(ns string) string {
	if ns == "" {
		return DefaultTopic
	}
	return ns + DefaultTopic
}

// taskState is one task's recorded status: the sub-solution plus the
// bookkeeping the delta protocol needs — per-atom hashes aligned with
// the solution's element order and their incremental multiset combine.
// Hashes are computed lazily on the first delta, so workflows that only
// ever push full snapshots never pay for them.
type taskState struct {
	sub *hocl.Solution
	// owned reports whether sub is a space-private shell that may be
	// mutated in place. A full snapshot arrives frozen and shared with
	// the publisher (and possibly other subscribers); the first delta
	// copies the shell before mutating.
	owned bool
	// hashed reports whether hashes/msh mirror sub's atoms.
	hashed bool
	hashes []uint64
	msh    hocl.MultisetHash
}

// ensureHashed (re)builds the per-atom hash mirror from the stored atoms.
func (st *taskState) ensureHashed() {
	if st.hashed {
		return
	}
	atoms := st.sub.Atoms()
	st.hashes = st.hashes[:0]
	st.msh = hocl.MultisetHash{}
	for _, a := range atoms {
		h := hocl.AtomHash(a)
		st.hashes = append(st.hashes, h)
		st.msh.Add(h)
	}
	st.hashed = true
}

// Space is the shared multiset. It is safe for concurrent use.
type Space struct {
	mu      sync.Mutex
	tasks   map[string]*taskState // task name -> latest sub-solution
	markers []hocl.Atom           // TRIGGER markers and other global molecules
	changed chan struct{}
	// cond, set by SetClock on a virtual clock, is the scheduler-aware
	// update signal: a single-run-token schedule cannot express the
	// changed-channel rendezvous, so virtual-mode waiters park on the
	// Cond and every update broadcasts it (alongside the channel, which
	// real-mode waiters keep using).
	cond      *cluster.Cond
	updates   int64
	malformed int

	deltasApplied  int64
	deltaFallbacks int64

	// versions records, per task, the highest (incarnation, push) VER
	// header folded in; a payload that does not advance it is stale —
	// a delayed or redelivered push — and is dropped whole, so chaos on
	// the status topic can never roll a task's recorded state back.
	versions   map[string]taskVersion
	staleDrops int64

	// resync, when set, is invoked (outside the lock) with the name of a
	// task whose delta-encoded status push failed to anchor: the space
	// asks the agent for an immediate full push instead of staying stale
	// until the agent's next natural snapshot. resyncPending dedups the
	// requests — one per task until a full snapshot heals it.
	resync        func(ctx context.Context, task string)
	resyncPending map[string]bool
	resyncWant    []string // requests accumulated under the current fold
	resyncSent    int64

	sub *mq.Subscription

	// chaos, when set, perturbs the serve-path fold order (defer and
	// duplicate per message) — the space-client boundary of the chaos
	// harness. deferred holds the held-back messages; deferMu is separate
	// from mu because flushing folds through ApplyBatch, which takes mu.
	chaos    atomic.Pointer[failure.Schedule]
	deferMu  sync.Mutex
	deferred []mq.Message
}

// taskVersion orders one task's status pushes: incarnations dominate,
// push counters break ties within an incarnation.
type taskVersion struct {
	inc, push int64
}

// before reports whether v precedes (or equals) w lexicographically.
func (v taskVersion) before(w taskVersion) bool {
	return v.inc < w.inc || (v.inc == w.inc && v.push <= w.push)
}

// New returns an empty space.
func New() *Space {
	return &Space{
		tasks:         map[string]*taskState{},
		changed:       make(chan struct{}),
		resyncPending: map[string]bool{},
		versions:      map[string]taskVersion{},
	}
}

// ResetVersions forgets the per-task version gate. Crash recovery calls
// it after replaying journaled status history: the resumed process's
// agents restart at incarnation 0, and their fresh pushes must not be
// mistaken for stale ones.
func (s *Space) ResetVersions() {
	s.mu.Lock()
	s.versions = map[string]taskVersion{}
	s.mu.Unlock()
}

// StaleDrops reports how many versioned status payloads were dropped as
// stale (delayed or redelivered pushes overtaken by a newer one).
func (s *Space) StaleDrops() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.staleDrops
}

// SetResyncRequester installs the space-to-agent resync channel: fn is
// called with a task name whenever a delta for it could not be applied
// (unknown task or fingerprint mismatch), at most once per task until a
// full snapshot for that task arrives. fn is invoked outside the space
// lock, after the batch that tripped it has been folded, with the ctx
// of the call that folded it. Typically fn publishes a
// hoclflow.ResyncMarker to the task's inbox topic.
func (s *Space) SetResyncRequester(fn func(ctx context.Context, task string)) {
	s.mu.Lock()
	s.resync = fn
	s.mu.Unlock()
}

// RequestResync asks the task's agent for a full status push through
// the installed resync requester (a no-op without one), passing it ctx.
// Recovery uses it to force post-resume convergence of every rebuilt
// task.
func (s *Space) RequestResync(ctx context.Context, task string) {
	s.mu.Lock()
	fn := s.resync
	pending := s.resyncPending[task]
	if fn != nil && !pending {
		s.resyncPending[task] = true
		s.resyncSent++
	}
	s.mu.Unlock()
	if fn != nil && !pending {
		fn(ctx, task)
	}
}

// ResyncRequests reports how many resync requests the space has issued.
func (s *Space) ResyncRequests() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resyncSent
}

// UpdateTask stores the latest sub-solution pushed by a task's agent,
// replacing any recorded state (the full-snapshot path).
func (s *Space) UpdateTask(name string, sub *hocl.Solution) {
	s.mu.Lock()
	s.updateTaskLocked(name, sub)
	s.bump()
	s.mu.Unlock()
}

func (s *Space) updateTaskLocked(name string, sub *hocl.Solution) {
	st := s.tasks[name]
	if st == nil {
		st = &taskState{}
		s.tasks[name] = st
	}
	st.sub = sub
	st.owned = false
	st.hashed = false
	// A full snapshot heals whatever staleness a refused delta left.
	delete(s.resyncPending, name)
}

// AddMarker records a global molecule (e.g. TRIGGER:"id").
func (s *Space) AddMarker(a hocl.Atom) {
	s.mu.Lock()
	s.markers = append(s.markers, a)
	s.bump()
	s.mu.Unlock()
}

// bump signals waiters; callers hold s.mu.
func (s *Space) bump() {
	s.updates++
	close(s.changed)
	s.changed = make(chan struct{})
	if s.cond != nil {
		s.cond.Broadcast()
	}
}

// SetClock tells the space which model clock its session runs on. On a
// virtual clock this installs the scheduler-aware wait path
// (WaitCompleted parks on a Cond instead of the changed channel, and
// Serve consumes through Subscription.Next); a real clock is a no-op.
// Call before Serve or WaitCompleted.
func (s *Space) SetClock(clock *cluster.Clock) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if clock.Virtual() && s.cond == nil {
		s.cond = clock.NewCond()
	}
}

// Updates returns the number of updates applied so far.
func (s *Space) Updates() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.updates
}

// DeltaStats reports how many delta-encoded status pushes were folded in
// and how many were refused (unknown task, fingerprint mismatch) — the
// observability hook for the delta protocol's fallback path.
func (s *Space) DeltaStats() (applied, fallbacks int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltasApplied, s.deltaFallbacks
}

// Names returns the task names that have reported into this space, in
// no particular order — the observable footprint of a session, used to
// assert that concurrent runs' molecules never cross.
func (s *Space) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tasks))
	for name := range s.tasks {
		out = append(out, name)
	}
	return out
}

// Status derives the recorded status of a task (StatusIdle when the task
// has never reported).
func (s *Space) Status(name string) hoclflow.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.tasks[name]
	if !ok {
		return hoclflow.StatusIdle
	}
	return hoclflow.StatusOf(st.sub)
}

// Results returns the task's recorded RES contents. The atoms are shared
// by reference (status payloads are frozen); the caller must not mutate
// them.
func (s *Space) Results(name string) []hocl.Atom {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.tasks[name]
	if !ok {
		return nil
	}
	res := hoclflow.Results(st.sub)
	if res == nil {
		return nil
	}
	return append([]hocl.Atom(nil), res...)
}

// Markers returns the recorded global molecules, shared by reference;
// the caller must not mutate them.
func (s *Space) Markers() []hocl.Atom {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]hocl.Atom(nil), s.markers...)
}

// Triggered returns the adaptation IDs whose TRIGGER markers have been
// recorded, in arrival order (duplicates collapsed).
func (s *Space) Triggered() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	for _, a := range s.markers {
		tp, ok := a.(hocl.Tuple)
		if !ok || len(tp) != 2 || !tp[0].Equal(hoclflow.KeyTRIGGER) {
			continue
		}
		id, ok := tp[1].(hocl.Str)
		if !ok || seen[string(id)] {
			continue
		}
		seen[string(id)] = true
		out = append(out, string(id))
	}
	return out
}

// Snapshot renders the space as a global multiset: task tuples plus
// markers — the distributed analogue of the centralized global solution.
// The result is a copy-on-write snapshot: the caller may mutate (even
// reduce) it freely without affecting the space.
func (s *Space) Snapshot() *hocl.Solution {
	s.mu.Lock()
	defer s.mu.Unlock()
	global := hocl.NewSolution()
	for name, st := range s.tasks {
		global.Add(hocl.Tuple{hocl.Ident(name), st.sub.SnapshotSolution()})
	}
	for _, m := range s.markers {
		global.Add(hocl.Snapshot(m))
	}
	return global
}

// StateFingerprint hashes the space's observable state — every task's
// recorded top-level multiset plus the markers — order-insensitively:
// two spaces that recorded the same states fingerprint equal regardless
// of how the updates arrived (full snapshots, deltas, or any mix), which
// is the convergence property the delta protocol is tested against.
func (s *Space) StateFingerprint() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m hocl.MultisetHash
	for name, st := range s.tasks {
		fp := hocl.Fingerprint(st.sub.Atoms()...)
		m.Add(hocl.AtomHash(hocl.Tuple{hocl.Ident(name), hocl.Int(int64(fp))}))
	}
	for _, mk := range s.markers {
		m.Add(hocl.AtomHash(mk))
	}
	return m.Fingerprint()
}

// waitCh returns the channel closed at the next update.
func (s *Space) waitCh() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.changed
}

// WaitCompleted blocks until every named task reports StatusCompleted, or
// the context ends.
func (s *Space) WaitCompleted(ctx context.Context, names []string) error {
	s.mu.Lock()
	cond := s.cond
	s.mu.Unlock()
	if cond != nil {
		// Virtual clock: the caller is a schedule participant; park on
		// the Cond so the run token is released while waiting. The
		// single-token schedule means no update can slip in between the
		// completion check and the wait.
		for {
			if s.allCompleted(names) {
				return nil
			}
			if err := cond.Wait(ctx); err != nil {
				return err
			}
		}
	}
	for {
		if s.allCompleted(names) {
			return nil
		}
		ch := s.waitCh()
		if s.allCompleted(names) { // re-check: update may have raced waitCh
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

func (s *Space) allCompleted(names []string) bool {
	for _, n := range names {
		if s.Status(n) != hoclflow.StatusCompleted {
			return false
		}
	}
	return true
}

// Attach subscribes the space to its broker topic. Attaching before any
// agent starts guarantees no status update is published into the void.
// Attach is idempotent.
func (s *Space) Attach(broker mq.Broker, topic string) error {
	if topic == "" {
		topic = DefaultTopic
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sub != nil {
		return nil
	}
	sub, err := broker.Subscribe(topic)
	if err != nil {
		return err
	}
	s.sub = sub
	return nil
}

// Serve consumes status messages from the broker topic until the context
// ends, attaching first if Attach has not been called. Messages arrive
// in broker batches and are folded in under one lock acquisition per
// batch. Message payloads are HOCL molecule lists: task tuples
// (Name:<...>) replace the task's sub-solution, STATDELTA tuples patch
// it, anything else is recorded as a marker. Malformed payloads are
// counted and skipped — a resilient space does not die on a corrupt
// message.
func (s *Space) Serve(ctx context.Context, broker mq.Broker, topic string) error {
	return s.ServeHooked(ctx, broker, topic, nil, nil)
}

// ServeHooked consumes like Serve with two optional observation hooks
// running on the consuming goroutine, in exact fold order: before is
// invoked with each raw batch before it is folded in (the journal's
// write-ahead point), after once the fold completed (the checkpoint
// point). Hooks see batches in the order the space applies them — the
// ordering guarantee a write-ahead log needs and a second subscriber
// could not give.
//
// When a chaos schedule is installed (SetChaos), the fold order behind
// the hooks is perturbed: messages may be held back or folded twice.
// The hooks still see raw batches in arrival order, so a journal
// records truth while the chaos exercises the version gate beneath it.
func (s *Space) ServeHooked(ctx context.Context, broker mq.Broker, topic string, before func([]mq.Message), after func()) error {
	if err := s.Attach(broker, topic); err != nil {
		return err
	}
	s.mu.Lock()
	sub := s.sub
	cond := s.cond
	s.mu.Unlock()
	defer sub.Cancel()
	if cond != nil {
		return s.serveVirtual(ctx, sub, before, after)
	}
	batches := sub.Batches()
	// Under chaos, a ticker drains held-back messages so a deferral
	// during the final quiet period cannot stall convergence.
	var tick <-chan time.Time
	if sched := s.chaos.Load(); sched.Enabled() {
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			s.FlushDeferred(ctx)
			return ctx.Err()
		case <-tick:
			s.FlushDeferred(ctx)
		case batch := <-batches:
			if before != nil {
				before(batch)
			}
			s.applyBatchChaos(ctx, batch)
			if after != nil {
				after()
			}
		}
	}
}

// serveVirtual is the consume loop on a discrete-event clock: the
// serving goroutine is a schedule participant, so it receives through
// Subscription.Next instead of the drain goroutine behind Batches.
// Chaos-deferred messages are flushed whenever the inbox runs dry —
// the virtual-time equivalent of the real-mode ticker: a held-back
// message rejoins as soon as the space would otherwise go quiet, so a
// deferral can never stall convergence.
func (s *Space) serveVirtual(ctx context.Context, sub *mq.Subscription, before func([]mq.Message), after func()) error {
	for {
		if err := ctx.Err(); err != nil {
			s.FlushDeferred(ctx)
			return err
		}
		batch := sub.TryNext()
		if batch == nil {
			s.FlushDeferred(ctx)
			var err error
			batch, err = sub.Next(ctx)
			if err != nil {
				s.FlushDeferred(ctx)
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return err
			}
		}
		if before != nil {
			before(batch)
		}
		s.applyBatchChaos(ctx, batch)
		if after != nil {
			after()
		}
	}
}

// SetChaos installs the fault schedule for the space-client boundary.
// Install before Serve; a nil schedule is ignored.
func (s *Space) SetChaos(sched *failure.Schedule) {
	if sched != nil {
		s.chaos.Store(sched)
	}
}

// applyBatchChaos folds one serve-path batch, drawing a fault per
// message when chaos is enabled: a "drop" defers the fold (a delayed
// apply — never a loss, since a lost final status would break the
// convergence guarantee the paper's model gives), a duplicate folds the
// message twice (the version gate must shrug it off). Held-back
// messages rejoin at the next fold, oldest first, so they arrive out of
// order relative to their successors. The perturbation lives only on
// the serve path: ApplyBatch itself stays pure for recovery replay.
func (s *Space) applyBatchChaos(ctx context.Context, batch []mq.Message) {
	sched := s.chaos.Load()
	if !sched.Enabled() {
		s.applyBatch(ctx, batch)
		return
	}
	s.deferMu.Lock()
	pending := s.deferred
	s.deferred = nil
	s.deferMu.Unlock()
	apply := make([]mq.Message, 0, len(pending)+len(batch))
	apply = append(apply, pending...)
	var held []mq.Message
	for i := range batch {
		switch sched.Draw(failure.BoundarySpace).Kind {
		case failure.FaultDrop:
			// Deep-copy before holding: the batch slice is broker-owned
			// and recycled after this call returns.
			held = append(held, copyMsg(batch[i]))
		case failure.FaultDuplicate:
			apply = append(apply, batch[i], batch[i])
		default:
			apply = append(apply, batch[i])
		}
	}
	if len(apply) > 0 {
		s.applyBatch(ctx, apply)
	}
	if len(held) > 0 {
		s.deferMu.Lock()
		s.deferred = append(s.deferred, held...)
		s.deferMu.Unlock()
	}
}

// FlushDeferred folds every chaos-deferred message immediately,
// returning how many decoded. The engine calls it after the chaos
// settle window, before reading results — deferred state must land
// before anyone fingerprints the space. ctx is the caller's, handed to
// the resync requester.
func (s *Space) FlushDeferred(ctx context.Context) int {
	s.deferMu.Lock()
	pending := s.deferred
	s.deferred = nil
	s.deferMu.Unlock()
	if len(pending) == 0 {
		return 0
	}
	return s.applyBatch(ctx, pending)
}

// copyMsg deep-copies a broker-owned message for retention beyond the
// batch hand-off (atom values are immutable; only the slice is shared).
func copyMsg(m mq.Message) mq.Message {
	if m.Atoms != nil {
		m.Atoms = append([]hocl.Atom(nil), m.Atoms...)
	}
	return m
}

// TaskStates returns a copy-on-write snapshot of every task's recorded
// sub-solution, keyed by task name — the per-task view crash recovery
// seeds replacement agents from. The caller may mutate the returned
// solutions freely.
func (s *Space) TaskStates() map[string]*hocl.Solution {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*hocl.Solution, len(s.tasks))
	for name, st := range s.tasks {
		out[name] = st.sub.SnapshotSolution()
	}
	return out
}

// ApplyBatch folds a batch of status messages into the space under one
// lock acquisition and one waiter wakeup, returning how many decoded.
// The batch slice is not retained — safe to call with a broker-owned
// batch. Resync requests it trips go out with context.Background().
func (s *Space) ApplyBatch(msgs []mq.Message) int {
	return s.applyBatch(context.Background(), msgs)
}

func (s *Space) applyBatch(ctx context.Context, msgs []mq.Message) int {
	n := 0
	s.mu.Lock()
	applied := int64(0)
	for i := range msgs {
		if s.applyMessageLocked(msgs[i], &applied) {
			n++
		}
	}
	s.finishApplyLocked(applied)
	fn, want := s.takeResyncLocked()
	s.mu.Unlock()
	fireResync(ctx, fn, want)
	return n
}

// ApplyMessage folds one status message into the space, reporting
// whether it decoded. Structural payloads are stored by reference — the
// zero-reparse path; textual payloads are parsed first.
func (s *Space) ApplyMessage(msg mq.Message) bool {
	s.mu.Lock()
	applied := int64(0)
	ok := s.applyMessageLocked(msg, &applied)
	s.finishApplyLocked(applied)
	fn, want := s.takeResyncLocked()
	s.mu.Unlock()
	fireResync(context.Background(), fn, want)
	return ok
}

// takeResyncLocked drains the resync requests accumulated by the fold
// just performed; the caller fires them after releasing the lock, so
// the requester callback can publish without re-entering the space.
func (s *Space) takeResyncLocked() (func(ctx context.Context, task string), []string) {
	if s.resync == nil || len(s.resyncWant) == 0 {
		return nil, nil
	}
	want := s.resyncWant
	s.resyncWant = nil
	return s.resync, want
}

func fireResync(ctx context.Context, fn func(ctx context.Context, task string), tasks []string) {
	if fn == nil {
		return
	}
	for _, t := range tasks {
		fn(ctx, t)
	}
}

// finishApplyLocked records applied updates and wakes waiters once —
// waiters re-check state anyway, so one wakeup per apply call suffices
// no matter how many updates it folded in. Refused deltas count as
// nothing.
func (s *Space) finishApplyLocked(applied int64) {
	if applied == 0 {
		return
	}
	s.updates += applied
	close(s.changed)
	s.changed = make(chan struct{})
	if s.cond != nil {
		s.cond.Broadcast()
	}
}

func (s *Space) applyMessageLocked(msg mq.Message, applied *int64) bool {
	if msg.Structural() {
		s.applyAtomsLocked(msg.Atoms, applied)
		return true
	}
	atoms, err := hocl.ParseMolecules(msg.Payload)
	if err != nil {
		s.malformed++
		return false
	}
	s.applyAtomsLocked(atoms, applied)
	return true
}

// Apply folds one textual status payload into the space, reporting
// whether it parsed.
func (s *Space) Apply(payload string) bool {
	return s.ApplyMessage(mq.Message{Payload: payload})
}

// applyAtomsLocked routes each molecule: task tuples (Name:<...>)
// replace the task's recorded sub-solution, STATDELTA tuples patch it,
// anything else is recorded as a marker. The space never mutates
// wire atoms, so sharing them with the publisher and other consumers is
// safe; only space-owned solution shells are patched in place. applied
// is incremented per folded-in update (refused deltas do not count).
func (s *Space) applyAtomsLocked(atoms []hocl.Atom, applied *int64) {
	for _, a := range atoms {
		if task, inc, push, ok := hoclflow.DecodeVersion(a); ok {
			// The VER header gates the remainder of its payload: a
			// version that does not advance the task's recorded one is a
			// delayed or redelivered push, dropped whole.
			v := taskVersion{inc: inc, push: push}
			if prev, seen := s.versions[task]; seen && v.before(prev) {
				s.staleDrops++
				return
			}
			s.versions[task] = v
			continue
		}
		if d, ok := hoclflow.DecodeStatusDelta(a); ok {
			if s.applyDeltaLocked(&d) {
				*applied++
			}
			continue
		}
		if tp, ok := a.(hocl.Tuple); ok && len(tp) == 2 {
			if name, ok := tp[0].(hocl.Ident); ok {
				if sub, ok := tp[1].(*hocl.Solution); ok {
					s.updateTaskLocked(string(name), sub)
					*applied++
					continue
				}
			}
		}
		if s.hasMarkerLocked(a) {
			// Markers are idempotent facts (TRIGGER:"id", ...): a
			// duplicated delivery must not grow the marker multiset, or
			// fingerprints would diverge across chaotic runs.
			continue
		}
		s.markers = append(s.markers, a)
		*applied++
	}
}

// hasMarkerLocked reports whether an equal marker is already recorded.
func (s *Space) hasMarkerLocked(a hocl.Atom) bool {
	for _, m := range s.markers {
		if m.Equal(a) {
			return true
		}
	}
	return false
}

// applyDeltaLocked folds one delta into the task's recorded state,
// reporting whether it applied. A delta that does not anchor — unknown
// task, base fingerprint mismatch, a removal hash the recorded state
// does not hold, or a Next fingerprint the patch would not produce — is
// dropped wholly before anything mutates, and counted; the last good
// state is kept. In-order per-topic delivery makes those cases
// unreachable in normal operation (the agent's first push of an
// incarnation is always a full snapshot), so a fallback here indicates a
// lost or reordered message, and the next full snapshot resynchronises.
func (s *Space) applyDeltaLocked(d *hoclflow.StatusDelta) bool {
	st, ok := s.tasks[d.Task]
	if !ok {
		s.deltaFallbackLocked(d.Task)
		return false
	}
	st.ensureHashed()
	if st.msh.Fingerprint() != d.Base {
		s.deltaFallbackLocked(d.Task)
		return false
	}
	// Resolve every removal hash and dry-run the whole patch on a copy
	// of the multiset combine before mutating anything: the drop is
	// genuinely atomic, including the Next verification (whose failure
	// is only reachable through an AtomHash collision inside one status
	// multiset — counted so divergence is observable).
	var removeIdx []int
	var taken []bool
	next := st.msh
	if len(d.RemovedHashes) > 0 {
		removeIdx = make([]int, 0, len(d.RemovedHashes))
		taken = make([]bool, len(st.hashes))
		for _, h := range d.RemovedHashes {
			found := -1
			for j, hh := range st.hashes {
				if !taken[j] && hh == h {
					found = j
					break
				}
			}
			if found < 0 {
				s.deltaFallbackLocked(d.Task)
				return false
			}
			taken[found] = true
			removeIdx = append(removeIdx, found)
			next.Remove(h)
		}
	}
	addedHashes := make([]uint64, len(d.Added))
	for i, a := range d.Added {
		addedHashes[i] = hocl.AtomHash(a)
		next.Add(addedHashes[i])
	}
	if next.Fingerprint() != d.Next {
		s.deltaFallbackLocked(d.Task)
		return false
	}

	if !st.owned {
		// First patch of a shared snapshot: copy the shell (atoms stay
		// shared) so in-place patches never touch the frozen original.
		st.sub = st.sub.Shell()
		st.owned = true
	}
	if len(removeIdx) > 0 {
		st.sub.RemoveIndices(removeIdx)
		// Mirror the removal on the hash slice, preserving order the way
		// RemoveIndices does.
		kept := st.hashes[:0]
		for j, h := range st.hashes {
			if !taken[j] {
				kept = append(kept, h)
			}
		}
		st.hashes = kept
	}
	if len(d.Added) > 0 {
		st.sub.Add(d.Added...)
		st.hashes = append(st.hashes, addedHashes...)
	}
	st.msh = next
	st.sub.SetInert(d.Inert)
	s.deltasApplied++
	return true
}

// deltaFallbackLocked counts a refused delta and queues a resync
// request for the task (once per task until a full snapshot heals it).
func (s *Space) deltaFallbackLocked(task string) {
	s.deltaFallbacks++
	if s.resync == nil || s.resyncPending[task] {
		return
	}
	s.resyncPending[task] = true
	s.resyncSent++
	s.resyncWant = append(s.resyncWant, task)
}

// Malformed returns the number of undecodable payloads seen.
func (s *Space) Malformed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.malformed
}
