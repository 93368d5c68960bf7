package hoclflow

import (
	"ginflow/internal/hocl"
)

// This file implements the delta-encoded status-push protocol (DESIGN.md
// "Broker internals"). An agent's status push is the stripped top-level
// multiset of its local solution; between two pushes most of those atoms
// are unchanged, so instead of re-shipping the whole sub-solution the
// agent ships only the multiset difference:
//
//   - removed atoms travel as their hocl.AtomHash values (the space
//     already holds the atoms; a hash identifies which to drop);
//   - added atoms travel by value, frozen (hocl.Freeze): a settled
//     agent state is inert throughout, so they are shared by reference
//     with the agent's local solution and, on the in-process broker,
//     with the space;
//   - the delta is anchored by the fingerprint of the state it applies
//     to (Base) and the fingerprint it must produce (Next), so a
//     receiver can detect and refuse a delta it cannot apply.
//
// The first push of an agent incarnation is always a full snapshot (the
// classic Name:<...> tuple), which is also the fallback whenever a delta
// would not be smaller than the snapshot. Per-topic FIFO delivery makes
// the full→delta→delta chain apply cleanly in normal operation; a
// receiver that cannot apply a delta (unknown task, base mismatch) keeps
// its last good state and counts the fallback.

// KeySTATDELTA marks a delta-encoded status push on the space topic:
// STATDELTA : Name : base : next : [removedHash, ...] : [added, ...] : inert.
const KeySTATDELTA = hocl.Ident("STATDELTA")

// statDeltaLen is the arity of the STATDELTA wire tuple.
const statDeltaLen = 7

// StatusDelta is one decoded delta-encoded status push.
type StatusDelta struct {
	// Task names the task whose recorded sub-solution the delta updates.
	Task string
	// Base is the fingerprint (hocl.Fingerprint over the top-level
	// multiset) of the state the delta applies to; Next is the
	// fingerprint of the state it produces.
	Base, Next uint64
	// RemovedHashes identifies the atoms to drop by their hocl.AtomHash,
	// with multiplicity.
	RemovedHashes []uint64
	// Added holds the atoms to add, frozen by the publish contract.
	Added []hocl.Atom
	// Inert carries the local solution's inertness flag, mirroring what
	// a full snapshot records via Solution.SetInert.
	Inert bool
}

// Atom renders the delta in its wire form.
func (d *StatusDelta) Atom() hocl.Atom {
	removed := make(hocl.List, len(d.RemovedHashes))
	for i, h := range d.RemovedHashes {
		removed[i] = hocl.Int(int64(h))
	}
	return hocl.Tuple{
		KeySTATDELTA,
		hocl.Ident(d.Task),
		hocl.Int(int64(d.Base)),
		hocl.Int(int64(d.Next)),
		removed,
		hocl.List(d.Added),
		hocl.Bool(d.Inert),
	}
}

// DecodeStatusDelta reports whether a is a STATDELTA wire tuple and, if
// so, decodes it. The returned Added atoms are shared with the wire
// payload and must not be mutated.
func DecodeStatusDelta(a hocl.Atom) (StatusDelta, bool) {
	tp, ok := a.(hocl.Tuple)
	if !ok || len(tp) != statDeltaLen || !tp[0].Equal(KeySTATDELTA) {
		return StatusDelta{}, false
	}
	name, ok := tp[1].(hocl.Ident)
	if !ok {
		return StatusDelta{}, false
	}
	base, ok := tp[2].(hocl.Int)
	if !ok {
		return StatusDelta{}, false
	}
	next, ok := tp[3].(hocl.Int)
	if !ok {
		return StatusDelta{}, false
	}
	removedList, ok := tp[4].(hocl.List)
	if !ok {
		return StatusDelta{}, false
	}
	added, ok := tp[5].(hocl.List)
	if !ok {
		return StatusDelta{}, false
	}
	inert, ok := tp[6].(hocl.Bool)
	if !ok {
		return StatusDelta{}, false
	}
	d := StatusDelta{
		Task:  string(name),
		Base:  uint64(int64(base)),
		Next:  uint64(int64(next)),
		Added: []hocl.Atom(added),
		Inert: bool(inert),
	}
	if len(removedList) > 0 {
		d.RemovedHashes = make([]uint64, len(removedList))
		for i, r := range removedList {
			h, ok := r.(hocl.Int)
			if !ok {
				return StatusDelta{}, false
			}
			d.RemovedHashes[i] = uint64(int64(h))
		}
	}
	return d, true
}

// StatusEncoder produces the status-push payload stream of one task: a
// full snapshot on first use, multiset deltas afterwards, and a full
// snapshot again whenever the delta would not be smaller. Unchanged
// states are deduplicated by fingerprint (Encode returns nil). The
// encoder is the single writer of its task's status on the space topic;
// it is not safe for concurrent use.
type StatusEncoder struct {
	// Task names the task whose status this encoder publishes.
	Task string
	// Incarnation is the publishing agent's incarnation, stamped into
	// every payload's VER header so the space can order pushes across a
	// respawn.
	Incarnation int

	pushed bool
	fp     uint64
	hashes []uint64 // per-atom hashes of the last pushed state

	// push counts emitted payloads within this incarnation. It is
	// monotone across Reset — a resync re-push must still outrank the
	// pushes before it, or the space would drop it as stale.
	push int64

	cur    []uint64       // scratch: hashes of the current state
	counts map[uint64]int // scratch: multiset diff working set
}

// Encode returns the wire payload for the task's current stripped status
// atoms — a VER header followed by either the full Name:<...> snapshot
// tuple or a STATDELTA tuple — or nil when the state is unchanged since
// the last push. Atoms shipped in the payload are frozen (hocl.Freeze:
// shared when inert, snapshotted otherwise); the caller keeps ownership
// of the input slice.
func (e *StatusEncoder) Encode(atoms []hocl.Atom, inert bool) []hocl.Atom {
	cur := e.cur[:0]
	var m hocl.MultisetHash
	for _, a := range atoms {
		h := hocl.AtomHash(a)
		cur = append(cur, h)
		m.Add(h)
	}
	e.cur = cur
	fp := m.Fingerprint()
	if e.pushed && fp == e.fp {
		return nil
	}
	if !e.pushed {
		return e.full(atoms, cur, fp, inert)
	}

	// Multiset diff against the last pushed state: counts carries the
	// previous multiplicity per hash; atoms not matched by it are added,
	// leftovers are removed.
	if e.counts == nil {
		e.counts = make(map[uint64]int, len(e.hashes))
	}
	counts := e.counts
	clear(counts)
	for _, h := range e.hashes {
		counts[h]++
	}
	var added []hocl.Atom
	for i, h := range cur {
		if counts[h] > 0 {
			counts[h]--
			continue
		}
		added = append(added, hocl.Freeze(atoms[i]))
	}
	var removed []uint64
	for _, h := range e.hashes {
		if counts[h] > 0 {
			counts[h]--
			removed = append(removed, h)
		}
	}
	if len(added)+len(removed) >= len(atoms) {
		return e.full(atoms, cur, fp, inert)
	}
	d := StatusDelta{
		Task: e.Task, Base: e.fp, Next: fp,
		RemovedHashes: removed, Added: added, Inert: inert,
	}
	e.remember(cur, fp)
	return e.payload(d.Atom())
}

// full builds the classic full-snapshot payload and records the state.
func (e *StatusEncoder) full(atoms []hocl.Atom, cur []uint64, fp uint64, inert bool) []hocl.Atom {
	sub := hocl.FreezeSolution(atoms)
	sub.SetInert(inert)
	e.remember(cur, fp)
	return e.payload(hocl.Tuple{hocl.Ident(e.Task), sub})
}

// payload stamps the next VER header ahead of the status body.
func (e *StatusEncoder) payload(body hocl.Atom) []hocl.Atom {
	e.push++
	return []hocl.Atom{VersionMarker(e.Task, int64(e.Incarnation), e.push), body}
}

func (e *StatusEncoder) remember(cur []uint64, fp uint64) {
	// Swap the hash buffers instead of copying: cur becomes the recorded
	// state, the old record becomes the next scratch.
	e.hashes, e.cur = cur, e.hashes
	e.fp = fp
	e.pushed = true
}

// Reset forgets the recorded state: the next Encode emits a full
// snapshot, as a fresh agent incarnation must. The push counter is NOT
// reset — it stays monotone within the incarnation, so the re-push
// after a resync outranks everything emitted before it.
func (e *StatusEncoder) Reset() {
	e.pushed = false
	e.fp = 0
	e.hashes = e.hashes[:0]
}
