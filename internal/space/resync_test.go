package space

import (
	"context"
	"testing"

	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/mq"
)

func fullPush(task string, atoms ...hocl.Atom) mq.Message {
	sub := hocl.NewSolution(atoms...)
	sub.SetInert(true)
	return mq.Message{Atoms: []hocl.Atom{hocl.Tuple{hocl.Ident(task), sub}}}
}

func badDelta(task string) mq.Message {
	d := hoclflow.StatusDelta{Task: task, Base: 0xdead, Next: 0xbeef, Inert: true}
	return mq.Message{Atoms: []hocl.Atom{d.Atom()}}
}

// TestResyncRequestedOnDeltaMismatch: a delta that fails to anchor
// triggers exactly one resync request for its task, deduplicated until
// a full snapshot heals the state, after which a new mismatch may
// request again.
func TestResyncRequestedOnDeltaMismatch(t *testing.T) {
	s := New()
	var asked []string
	s.SetResyncRequester(func(_ context.Context, task string) { asked = append(asked, task) })

	s.ApplyMessage(fullPush("T1", hocl.Str("a")))
	if len(asked) != 0 {
		t.Fatalf("full push triggered resync: %v", asked)
	}

	s.ApplyMessage(badDelta("T1"))
	if len(asked) != 1 || asked[0] != "T1" {
		t.Fatalf("after first bad delta asked=%v, want [T1]", asked)
	}
	// Repeated mismatches do not storm the agent.
	s.ApplyMessage(badDelta("T1"))
	s.ApplyMessage(badDelta("T1"))
	if len(asked) != 1 {
		t.Fatalf("resync storm: %v", asked)
	}

	// The healing full snapshot clears the pending flag...
	s.ApplyMessage(fullPush("T1", hocl.Str("b")))
	// ...so a later divergence can ask again.
	s.ApplyMessage(badDelta("T1"))
	if len(asked) != 2 {
		t.Fatalf("post-heal mismatch not re-requested: %v", asked)
	}

	// Unknown-task deltas request a resync too (the full push will
	// introduce the task).
	s.ApplyMessage(badDelta("T9"))
	if len(asked) != 3 || asked[2] != "T9" {
		t.Fatalf("unknown-task delta: %v", asked)
	}
	if got := s.ResyncRequests(); got != 3 {
		t.Fatalf("ResyncRequests = %d, want 3", got)
	}
}

// TestRequestResyncForced: recovery forces convergence by requesting a
// full push per rebuilt task; dedup applies until healed.
func TestRequestResyncForced(t *testing.T) {
	s := New()
	var asked []string
	s.SetResyncRequester(func(_ context.Context, task string) { asked = append(asked, task) })

	s.RequestResync(context.Background(), "T1")
	s.RequestResync(context.Background(), "T1")
	if len(asked) != 1 {
		t.Fatalf("forced resync not deduplicated: %v", asked)
	}
	s.ApplyMessage(fullPush("T1", hocl.Str("x")))
	s.RequestResync(context.Background(), "T1")
	if len(asked) != 2 {
		t.Fatalf("forced resync after heal: %v", asked)
	}
}

// TestResyncWithoutRequesterIsSafe: the channel is optional.
func TestResyncWithoutRequesterIsSafe(t *testing.T) {
	s := New()
	s.ApplyMessage(badDelta("T1"))
	s.RequestResync(context.Background(), "T1")
	if _, fallbacks := s.DeltaStats(); fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", fallbacks)
	}
	if s.ResyncRequests() != 0 {
		t.Fatal("requests counted without a requester")
	}
}
