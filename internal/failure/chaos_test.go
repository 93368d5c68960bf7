package failure

import (
	"context"
	"errors"
	"testing"
)

// drawAll drains n draws of one boundary into a kind sequence.
func drawAll(s *Schedule, b Boundary, n int) []FaultKind {
	out := make([]FaultKind, n)
	for i := range out {
		out[i] = s.Draw(b).Kind
	}
	return out
}

func soakConfig(seed int64) ChaosConfig {
	return ChaosConfig{
		Seed:         seed,
		MessageDropP: 0.2, MessageDupP: 0.1, MessageDelayP: 0.1, MessageReorderP: 0.1,
		InvokeErrorP: 0.2, InvokeTimeoutP: 0.1, InvokeSlowP: 0.1,
		DeployErrorP:  0.3,
		JournalErrorP: 0.2, JournalTornP: 0.1, JournalSlowSyncP: 0.2,
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	for _, b := range []Boundary{BoundaryMessage, BoundaryInvoke, BoundaryDeploy, BoundaryJournalWrite, BoundaryJournalSync} {
		a := drawAll(NewSchedule(soakConfig(42)), b, 500)
		c := drawAll(NewSchedule(soakConfig(42)), b, 500)
		for i := range a {
			if a[i] != c[i] {
				t.Fatalf("boundary %s: draw %d differs between same-seed schedules: %s vs %s", b, i, a[i], c[i])
			}
		}
	}
}

func TestScheduleSeedsDiffer(t *testing.T) {
	a := drawAll(NewSchedule(soakConfig(1)), BoundaryMessage, 200)
	b := drawAll(NewSchedule(soakConfig(2)), BoundaryMessage, 200)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical draw sequences")
	}
}

func TestScheduleMaxConsecutive(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, InvokeErrorP: 1, MaxConsecutive: 3}
	s := NewSchedule(cfg)
	kinds := drawAll(s, BoundaryInvoke, 20)
	consec := 0
	for i, k := range kinds {
		if k == FaultNone {
			if consec != 3 {
				t.Fatalf("draw %d: forced success after %d faults, want 3", i, consec)
			}
			consec = 0
			continue
		}
		consec++
		if consec > 3 {
			t.Fatalf("draw %d: %d consecutive faults exceed MaxConsecutive=3", i, consec)
		}
	}
}

func TestScheduleNilSafe(t *testing.T) {
	var s *Schedule
	if s.Enabled() {
		t.Fatal("nil schedule reports enabled")
	}
	if f := s.Draw(BoundaryMessage); f.Kind != FaultNone {
		t.Fatalf("nil schedule drew %s", f.Kind)
	}
	s.Sleep(context.Background(), 1)
	s.SetSleeper(nil)
	if s.Counts() != nil {
		t.Fatal("nil schedule returned counts")
	}
	if s.SettleSeconds() != 0 {
		t.Fatal("nil schedule settles")
	}
}

func TestScheduleCountsAndErrors(t *testing.T) {
	s := NewSchedule(ChaosConfig{Seed: 3, JournalErrorP: 0.5, JournalTornP: 0.5, MaxConsecutive: -1})
	sawErr, sawTorn := false, false
	for i := 0; i < 50; i++ {
		f := s.Draw(BoundaryJournalWrite)
		switch f.Kind {
		case FaultError:
			sawErr = true
		case FaultTorn:
			sawTorn = true
		default:
			t.Fatalf("draw %d: unexpected kind %s with P(error)+P(torn)=1", i, f.Kind)
		}
		if !errors.Is(f.Err, ErrInjected) {
			t.Fatalf("draw %d: fault error %v does not wrap ErrInjected", i, f.Err)
		}
	}
	if !sawErr || !sawTorn {
		t.Fatalf("expected both kinds; err=%v torn=%v", sawErr, sawTorn)
	}
	counts := s.Counts()
	var total int64
	for _, n := range counts {
		total += n
	}
	if total != 50 || s.Faults() != 50 {
		t.Fatalf("counts total %d, Faults %d, want 50", total, s.Faults())
	}
}

func TestScheduleSleeper(t *testing.T) {
	s := NewSchedule(ChaosConfig{Seed: 1, MessageDropP: 0.1})
	var slept float64
	s.SetSleeper(func(_ context.Context, sec float64) error { slept += sec; return nil })
	s.Sleep(context.Background(), 2.5)
	s.Sleep(context.Background(), -1) // ignored
	if slept != 2.5 {
		t.Fatalf("slept %v, want 2.5", slept)
	}
}

func TestRetryConfigDelay(t *testing.T) {
	rc := RetryConfig{}.WithDefaults()
	if rc.MaxAttempts != 5 || rc.BackoffBase != 0.5 || rc.BackoffFactor != 2 {
		t.Fatalf("unexpected defaults: %+v", rc)
	}
	want := []float64{0.5, 1, 2, 4}
	for i, w := range want {
		if got := rc.Delay(i + 1); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestChaosConfigEnabledAndSettle(t *testing.T) {
	if (ChaosConfig{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	if (ChaosConfig{InvokeErrorP: 0.1}).SettleSeconds() != 0 {
		t.Fatal("invoke-only config should not require settling")
	}
	c := ChaosConfig{MessageDropP: 0.1}
	if !c.Enabled() || c.SettleSeconds() <= 0 {
		t.Fatalf("message chaos must enable and settle; settle=%v", c.SettleSeconds())
	}
}
