package journal

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ginflow/internal/failure"
)

// journalChaos builds a schedule injecting journal write faults with the
// given probabilities. MaxConsecutive keeps the default forcing (3), so
// every write eventually lands inside the default 5-attempt budget.
func journalChaos(seed int64, errP, tornP float64) *failure.Schedule {
	return failure.NewSchedule(failure.ChaosConfig{
		Seed:          seed,
		JournalErrorP: errP,
		JournalTornP:  tornP,
	})
}

// TestJournalWriteFaultsRetryAndRepair: under heavy injected write
// faults — transient errors and torn half-writes — every record must
// still land intact: torn tails are truncated away before the retry, so
// the read side sees a clean, complete stream.
func TestJournalWriteFaultsRetryAndRepair(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ch := journalChaos(seed, 0.4, 0.4)
		j := mustOpen(t, Config{Dir: t.TempDir(), Chaos: ch})
		w, err := j.CreateSession(testMeta(9))
		if err != nil {
			t.Fatal(err)
		}
		const n = 40
		for i := 0; i < n; i++ {
			if err := w.AppendStatus(statusPayload("T1", i)); err != nil {
				t.Fatalf("seed %d: append %d: %v", seed, i, err)
			}
		}
		st, err := j.ReadSession(9)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.TornBytes != 0 {
			t.Fatalf("seed %d: %d torn bytes survived the repairs", seed, st.TornBytes)
		}
		if st.StatusRecords != n {
			t.Fatalf("seed %d: %d status records, want %d", seed, st.StatusRecords, n)
		}
		for i := 1; i <= n; i++ {
			if !st.Payloads[i][0].Equal(statusPayload("T1", i-1)[0]) {
				t.Fatalf("seed %d: payload %d corrupted", seed, i)
			}
		}
		if ch.Faults() == 0 {
			t.Fatalf("seed %d: no faults injected — the test exercised nothing", seed)
		}
	}
}

// TestJournalWriteRetriesExhausted: with consecutive-fault forcing
// disabled and a certain fault, the writer must give up with a cause
// chain matching failure.ErrRetriesExhausted instead of looping.
func TestJournalWriteRetriesExhausted(t *testing.T) {
	ch := failure.NewSchedule(failure.ChaosConfig{
		Seed:           7,
		JournalErrorP:  1,
		MaxConsecutive: -1,
	})
	j := mustOpen(t, Config{Dir: t.TempDir(), Chaos: ch, Retry: failure.RetryConfig{MaxAttempts: 3, BackoffBase: 0.001}})
	w, err := j.CreateSession(testMeta(10))
	if err == nil {
		w.Close()
		t.Fatal("CreateSession succeeded under a certain write fault")
	}
	if !errors.Is(err, failure.ErrRetriesExhausted) {
		t.Fatalf("error chain misses ErrRetriesExhausted: %v", err)
	}
	if !errors.Is(err, failure.ErrInjected) {
		t.Fatalf("error chain misses the injected cause: %v", err)
	}
}

// writeHeadOnlySegment hand-writes a segment holding only the workflow
// record — the on-disk state a kill leaves when it lands between the two
// head writes of a rotation.
func writeHeadOnlySegment(t *testing.T, dir string, id int64, segIdx int) {
	t.Helper()
	metaJSON, err := json.Marshal(testMeta(id))
	if err != nil {
		t.Fatal(err)
	}
	var frame []byte
	frame = append(frame, byte(len(metaJSON)), 0, 0, 0)
	frame = append(frame, recWorkflow)
	frame = append(frame, metaJSON...)
	fp := frameFingerprint(recWorkflow, metaJSON)
	for i := 0; i < 8; i++ {
		frame = append(frame, byte(fp>>(8*i)))
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(segIdx)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJournalDoubleTornRotation: the worst crash pattern — the rotation
// head is torn AND the predecessor segment's head is torn too (a second
// kill during the predecessor's own rotation window). No intact segment
// exists, so recovery must cleanly reach the restart-from-scratch last
// resort: the durable workflow record with an empty replay stream, not
// an error and not stale state.
func TestJournalDoubleTornRotation(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Config{Dir: dir})
	w, err := j.CreateSession(testMeta(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendInbox(context.Background(), "wf11.sa.T1", statusPayload("T1", 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.AppendStatus(statusPayload("T1", i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	sessionDir := filepath.Join(dir, "wf-11")
	// Both the newest segment and its predecessor are caught in the
	// rotation window: workflow record durable, head snapshot torn.
	writeHeadOnlySegment(t, sessionDir, 11, 1)
	writeHeadOnlySegment(t, sessionDir, 11, 2)

	st, err := j.ReadSession(11)
	if err != nil {
		t.Fatalf("double-torn session did not reach the last resort: %v", err)
	}
	if st.Meta.ID != 11 {
		t.Fatalf("last resort lost the workflow record: %+v", st.Meta)
	}
	if len(st.Payloads) != 0 || st.StatusRecords != 0 || len(st.Inbox) != 0 {
		t.Fatalf("last resort is not from scratch: %d payloads, %d status, %d inbox",
			len(st.Payloads), st.StatusRecords, len(st.Inbox))
	}
	if st.Done {
		t.Fatal("last resort marked done")
	}
}

// TestJournalInboxRoundTrip: inbox records survive checkpoints (unlike
// status records they are never cut at a snapshot) and rotation rewrites
// the full history into the new segment head.
func TestJournalInboxRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Config{Dir: dir, MaxSegmentBytes: 1})
	w, err := j.CreateSession(testMeta(12))
	if err != nil {
		t.Fatal(err)
	}
	history := []InboxRecord{
		{Topic: "wf12.sa.T2", Atoms: statusPayload("T1", 1)},
		{Topic: "wf12.sa.T3", Atoms: statusPayload("T1", 2)},
		{Topic: "wf12.sa.T2", Atoms: statusPayload("T1", 3)},
	}
	w.SetInboxSource(func() []InboxRecord { return history })
	for _, rec := range history {
		if err := w.AppendInbox(context.Background(), rec.Topic, rec.Atoms); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendStatus(statusPayload("T1", 0)); err != nil {
		t.Fatal(err)
	}
	// MaxSegmentBytes=1 forces this checkpoint to rotate: the new head
	// must carry the rewritten inbox history.
	if err := w.Checkpoint(context.Background(), statusPayload("T1", 0)); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(filepath.Join(dir, "wf-12"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].index != 2 {
		t.Fatalf("rotation left segments %v, want only seg 2", segs)
	}

	st, err := j.ReadSession(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Inbox) != len(history) {
		t.Fatalf("read %d inbox records, want %d", len(st.Inbox), len(history))
	}
	for i, rec := range st.Inbox {
		if rec.Topic != history[i].Topic {
			t.Fatalf("inbox %d topic = %q, want %q", i, rec.Topic, history[i].Topic)
		}
		if len(rec.Atoms) != 1 || !rec.Atoms[0].Equal(history[i].Atoms[0]) {
			t.Fatalf("inbox %d atoms did not round-trip: %v", i, rec.Atoms)
		}
	}

	// A later checkpoint that does NOT rotate must not erase the inbox
	// stream either: snapshots cut status replay, never inbox history.
	j2 := mustOpen(t, Config{Dir: t.TempDir()})
	w2, err := j2.CreateSession(testMeta(13))
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AppendInbox(context.Background(), "wf13.sa.T2", statusPayload("T1", 7)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Checkpoint(context.Background(), statusPayload("T1", 7)); err != nil {
		t.Fatal(err)
	}
	st2, err := j2.ReadSession(13)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Inbox) != 1 {
		t.Fatalf("snapshot erased the inbox stream: %d records", len(st2.Inbox))
	}
}

// TestJournalResumeCarriesInboxForward: ResumeSession re-journals the
// recovered inbox history into the fresh segment head, so a crash after
// resume still finds it.
func TestJournalResumeCarriesInboxForward(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, Config{Dir: dir})
	w, err := j.CreateSession(testMeta(14))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendInbox(context.Background(), "wf14.sa.T2", statusPayload("T1", 5)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	st, err := j.ReadSession(14)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := j.ResumeSession(testMeta(14), nil, st.Inbox)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()

	st2, err := j.ReadSession(14)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Inbox) != 1 || st2.Inbox[0].Topic != "wf14.sa.T2" {
		t.Fatalf("resumed segment lost the inbox history: %+v", st2.Inbox)
	}
}
