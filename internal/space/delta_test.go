package space

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/mq"
)

// applyPayload feeds an encoder-produced wire payload to the space the
// way the broker would: as one structural message.
func applyPayload(s *Space, payload []hocl.Atom) {
	if payload == nil {
		return
	}
	s.ApplyMessage(mq.Message{Atoms: payload})
}

// fullSnapshotPayload builds the classic full-snapshot payload for a
// state, bypassing delta encoding.
func fullSnapshotPayload(task string, atoms []hocl.Atom, inert bool) []hocl.Atom {
	sub := hocl.FreezeSolution(atoms)
	sub.SetInert(inert)
	return []hocl.Atom{hocl.Tuple{hocl.Ident(task), sub}}
}

func TestSpaceAppliesDelta(t *testing.T) {
	s := New()
	enc := &hoclflow.StatusEncoder{Task: "T1"}
	state1 := []hocl.Atom{
		hocl.Tuple{hoclflow.KeySRC, hocl.NewSolution(hocl.Ident("T0"))},
		hocl.Tuple{hoclflow.KeyDST, hocl.NewSolution(hocl.Ident("T4"))},
		hocl.Tuple{hoclflow.KeyIN, hocl.NewSolution()},
		hocl.Tuple{hoclflow.KeySRV, hocl.Str("s1")},
		hocl.Tuple{hoclflow.KeyRES, hocl.NewSolution()},
	}
	applyPayload(s, enc.Encode(state1, false))

	// Only RES changes: well under the full-snapshot threshold.
	state2 := []hocl.Atom{
		hocl.Tuple{hoclflow.KeySRC, hocl.NewSolution(hocl.Ident("T0"))},
		hocl.Tuple{hoclflow.KeyDST, hocl.NewSolution(hocl.Ident("T4"))},
		hocl.Tuple{hoclflow.KeyIN, hocl.NewSolution()},
		hocl.Tuple{hoclflow.KeySRV, hocl.Str("s1")},
		hocl.Tuple{hoclflow.KeyRES, hocl.NewSolution(hocl.Str("out"))},
	}
	payload := enc.Encode(state2, true)
	if _, ok := hoclflow.DecodeStatusDelta(payload[1]); !ok {
		t.Fatalf("expected delta payload, got %v", payload[1])
	}
	applyPayload(s, payload)

	if st := s.Status("T1"); st != hoclflow.StatusCompleted {
		t.Errorf("status after delta = %v, want completed", st)
	}
	res := s.Results("T1")
	if len(res) != 1 || !res[0].Equal(hocl.Str("out")) {
		t.Errorf("results after delta = %v", res)
	}
	applied, fallbacks := s.DeltaStats()
	if applied != 1 || fallbacks != 0 {
		t.Errorf("delta stats = %d applied, %d fallbacks", applied, fallbacks)
	}
}

// TestSpaceDeltaMismatchKeepsLastGoodState: a delta that does not anchor
// (wrong base, unknown task) is dropped and counted, never corrupting
// the recorded state.
func TestSpaceDeltaMismatchKeepsLastGoodState(t *testing.T) {
	s := New()
	state := []hocl.Atom{hocl.Tuple{hoclflow.KeyRES, hocl.NewSolution(hocl.Str("good"))}}
	applyPayload(s, fullSnapshotPayload("T1", state, true))

	// Unknown task.
	d := hoclflow.StatusDelta{Task: "GHOST", Base: 1, Next: 2}
	applyPayload(s, []hocl.Atom{d.Atom()})
	// Wrong base fingerprint.
	d = hoclflow.StatusDelta{
		Task: "T1", Base: 0xbad, Next: 2,
		Added: []hocl.Atom{hocl.Int(1)},
	}
	applyPayload(s, []hocl.Atom{d.Atom()})
	// Removal hash the state does not hold.
	d = hoclflow.StatusDelta{
		Task: "T1", Base: hocl.Fingerprint(state...), Next: 2,
		RemovedHashes: []uint64{0xdead},
	}
	applyPayload(s, []hocl.Atom{d.Atom()})

	if applied, fallbacks := s.DeltaStats(); applied != 0 || fallbacks != 3 {
		t.Errorf("delta stats = %d applied, %d fallbacks, want 0/3", applied, fallbacks)
	}
	res := s.Results("T1")
	if len(res) != 1 || !res[0].Equal(hocl.Str("good")) {
		t.Errorf("state corrupted by refused deltas: %v", res)
	}
	// A later full snapshot resynchronises and deltas anchor again.
	enc := &hoclflow.StatusEncoder{Task: "T1"}
	wide := []hocl.Atom{
		hocl.Tuple{hoclflow.KeySRV, hocl.Str("s1")},
		hocl.Tuple{hoclflow.KeyDST, hocl.NewSolution()},
		hocl.Tuple{hoclflow.KeyRES, hocl.NewSolution(hocl.Str("good"))},
	}
	applyPayload(s, enc.Encode(wide, true))
	wide2 := []hocl.Atom{
		hocl.Tuple{hoclflow.KeySRV, hocl.Str("s1")},
		hocl.Tuple{hoclflow.KeyDST, hocl.NewSolution()},
		hocl.Tuple{hoclflow.KeyRES, hocl.NewSolution(hocl.Str("better"))},
	}
	applyPayload(s, enc.Encode(wide2, true))
	if applied, _ := s.DeltaStats(); applied != 1 {
		t.Error("delta after resync full snapshot did not apply")
	}
}

// TestSpaceDeltaDoesNotMutateSharedSnapshot: the full snapshot a space
// stores is shared with the publisher (and other subscribers); folding a
// delta in must patch a space-private copy, never the frozen original.
func TestSpaceDeltaDoesNotMutateSharedSnapshot(t *testing.T) {
	enc := &hoclflow.StatusEncoder{Task: "T1"}
	state1 := []hocl.Atom{
		hocl.Tuple{hoclflow.KeySRC, hocl.NewSolution()},
		hocl.Tuple{hoclflow.KeyDST, hocl.NewSolution()},
		hocl.Tuple{hoclflow.KeySRV, hocl.Str("s1")},
		hocl.Tuple{hoclflow.KeyRES, hocl.NewSolution()},
	}
	full := enc.Encode(state1, false)
	shared := full[1].(hocl.Tuple)[1].(*hocl.Solution)
	before := shared.String()

	s := New()
	applyPayload(s, full)
	state2 := []hocl.Atom{
		hocl.Tuple{hoclflow.KeySRC, hocl.NewSolution()},
		hocl.Tuple{hoclflow.KeyDST, hocl.NewSolution()},
		hocl.Tuple{hoclflow.KeySRV, hocl.Str("s1")},
		hocl.Tuple{hoclflow.KeyRES, hocl.NewSolution(hocl.Str("out"))},
	}
	delta := enc.Encode(state2, true)
	if _, ok := hoclflow.DecodeStatusDelta(delta[1]); !ok {
		t.Fatalf("expected delta payload, got %v", delta[1])
	}
	applyPayload(s, delta)

	if got := shared.String(); got != before {
		t.Errorf("delta mutated the shared snapshot: %q -> %q", before, got)
	}
	if st := s.Status("T1"); st != hoclflow.StatusCompleted {
		t.Errorf("space state = %v, want completed", st)
	}
}

// randomStatusState generates a mesh-task-shaped stripped status: the
// SRC/DST/SRV/IN/PAR/RES tuples of a diamond/mesh task sub-solution at a
// random point of its enactment, as produced by workflow translation and
// mutated by the gw_* rules.
func randomStatusState(rng *rand.Rand, fan int) []hocl.Atom {
	srcLeft := rng.Intn(fan + 1)
	src := make([]hocl.Atom, 0, srcLeft)
	for i := 0; i < srcLeft; i++ {
		src = append(src, hocl.Ident(fmt.Sprintf("S%d", i+1)))
	}
	in := make([]hocl.Atom, 0, fan-srcLeft)
	for i := srcLeft; i < fan; i++ {
		in = append(in, hocl.Str(fmt.Sprintf("out-S%d", i+1)))
	}
	dst := make([]hocl.Atom, 0, fan)
	for i := 0; i < rng.Intn(fan+1); i++ {
		dst = append(dst, hocl.Ident(fmt.Sprintf("D%d", i+1)))
	}
	atoms := []hocl.Atom{
		hocl.Tuple{hoclflow.KeySRC, hocl.NewSolution(src...)},
		hocl.Tuple{hoclflow.KeyDST, hocl.NewSolution(dst...)},
		hocl.Tuple{hoclflow.KeySRV, hocl.Str("work")},
	}
	if rng.Intn(2) == 0 {
		atoms = append(atoms, hocl.Tuple{hoclflow.KeyIN, hocl.NewSolution(in...)})
	}
	if rng.Intn(3) == 0 {
		atoms = append(atoms, hocl.Tuple{hoclflow.KeyPAR, hocl.List(slices.Clone(in))})
	}
	res := hocl.NewSolution()
	if srcLeft == 0 && rng.Intn(2) == 0 {
		res.Add(hocl.Str("out-work"))
	}
	atoms = append(atoms, hocl.Tuple{hoclflow.KeyRES, res})
	// Occasional duplicate atoms exercise multiset multiplicities.
	if rng.Intn(4) == 0 {
		atoms = append(atoms, hocl.Int(int64(rng.Intn(3))), hocl.Int(int64(rng.Intn(3))))
	}
	return atoms
}

// TestDeltaAndFullReplayConverge is the delta protocol's property test:
// across randomized diamond/mesh-shaped status histories, a space fed
// delta-encoded pushes and a space fed full snapshots of the same states
// converge to fingerprint-identical contents. Tasks stream concurrently
// (one goroutine per task, as agents push concurrently in a session), so
// the test also exercises the locking under -race.
func TestDeltaAndFullReplayConverge(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			deltaSpace, fullSpace := New(), New()
			const tasks = 6
			const steps = 40
			var wg sync.WaitGroup
			for ti := 0; ti < tasks; ti++ {
				wg.Add(1)
				go func(ti int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*100 + int64(ti)))
					task := fmt.Sprintf("N%d", ti)
					enc := &hoclflow.StatusEncoder{Task: task}
					fan := 1 + rng.Intn(8)
					for step := 0; step < steps; step++ {
						state := randomStatusState(rng, fan)
						inert := rng.Intn(2) == 0
						applyPayload(deltaSpace, enc.Encode(state, inert))
						applyPayload(fullSpace, fullSnapshotPayload(task, state, inert))
					}
				}(ti)
			}
			wg.Wait()

			if got, want := deltaSpace.StateFingerprint(), fullSpace.StateFingerprint(); got != want {
				t.Errorf("spaces diverged: delta %#x vs full %#x\ndelta: %v\nfull:  %v",
					got, want, deltaSpace.Snapshot(), fullSpace.Snapshot())
			}
			for ti := 0; ti < tasks; ti++ {
				task := fmt.Sprintf("N%d", ti)
				if ds, fs := deltaSpace.Status(task), fullSpace.Status(task); ds != fs {
					t.Errorf("task %s status: delta %v vs full %v", task, ds, fs)
				}
			}
			if _, fallbacks := deltaSpace.DeltaStats(); fallbacks != 0 {
				t.Errorf("in-order delta stream fell back %d times", fallbacks)
			}
		})
	}
}
