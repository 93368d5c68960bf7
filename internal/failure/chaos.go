package failure

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"ginflow/internal/obs"
)

// This file grows the package beyond the agent-crash injector into a
// deterministic chaos layer: a seeded Schedule draws faults at every
// boundary the system has — broker delivery, service invocation,
// executor deployment, journal I/O — so a chaotic run can be replayed
// from its seed. Each boundary owns an independent RNG stream; within a
// boundary the draw sequence is fully determined by the seed, so the
// fault mix of a run is reproducible even though goroutine interleaving
// may vary which call site receives which draw.

// Boundary names a fault-injection point.
type Boundary int

// The boundaries the chaos schedule can perturb.
const (
	// BoundaryMessage is broker delivery fan-out: drop (with bounded
	// redelivery), duplicate, delay, reorder.
	BoundaryMessage Boundary = iota
	// BoundaryInvoke is service invocation: transient errors, timeouts,
	// slow-downs.
	BoundaryInvoke
	// BoundaryDeploy is executor deployment: transient errors.
	BoundaryDeploy
	// BoundaryJournalWrite is a journal record append: write errors and
	// torn (partial) writes.
	BoundaryJournalWrite
	// BoundaryJournalSync is the journal fsync: slow-downs.
	BoundaryJournalSync
	// BoundarySocket is the network transport's publish dispatch (the
	// TCP frame boundary between a remote node and the listener's
	// broker): drop (with bounded redelivery), duplicate, delay,
	// reorder — the real-network fault mix, applied after the frame
	// protocol's own dedup so the connection resume logic stays honest.
	BoundarySocket
	// BoundarySpace is the space-client boundary: the hand-off between
	// the broker's status-topic feed and the space fold. Faults defer
	// (never lose) or duplicate individual folds, exercising the version
	// gate and resync machinery from the consumer side.
	BoundarySpace

	boundaryCount
)

// String returns the boundary's name.
func (b Boundary) String() string {
	switch b {
	case BoundaryMessage:
		return "message"
	case BoundaryInvoke:
		return "invoke"
	case BoundaryDeploy:
		return "deploy"
	case BoundaryJournalWrite:
		return "journal-write"
	case BoundaryJournalSync:
		return "journal-sync"
	case BoundarySocket:
		return "socket"
	case BoundarySpace:
		return "space"
	}
	return fmt.Sprintf("boundary(%d)", int(b))
}

// FaultKind classifies an injected fault.
type FaultKind int

// The fault kinds a draw can return. Not every kind applies to every
// boundary; see ChaosConfig for the per-boundary probabilities.
const (
	// FaultNone is the (common) no-fault outcome.
	FaultNone FaultKind = iota
	// FaultDrop suppresses a message delivery attempt.
	FaultDrop
	// FaultDuplicate delivers a message twice.
	FaultDuplicate
	// FaultDelay postpones a delivery by Fault.Delay model seconds.
	FaultDelay
	// FaultReorder swaps a delivery with its predecessor in the batch.
	FaultReorder
	// FaultError fails an operation with a transient error.
	FaultError
	// FaultTimeout makes an invocation run its full duration and then
	// fail — the service executed but its response was lost.
	FaultTimeout
	// FaultSlow stretches an operation by Fault.Delay model seconds.
	FaultSlow
	// FaultTorn persists only a prefix of a journal write.
	FaultTorn
)

// String returns the fault kind's name.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultDelay:
		return "delay"
	case FaultReorder:
		return "reorder"
	case FaultError:
		return "error"
	case FaultTimeout:
		return "timeout"
	case FaultSlow:
		return "slow"
	case FaultTorn:
		return "torn"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Injected-fault sentinels. ErrInjected is the root every injected
// error wraps, so call sites can tell chaos from genuine failures;
// ErrRetriesExhausted marks a bounded retry budget running out (the
// supervisor escalates it into a session failure).
var (
	ErrInjected         = errors.New("injected fault")
	ErrRetriesExhausted = errors.New("retries exhausted")
)

// Preallocated injected errors, one per fault site, all wrapping
// ErrInjected.
var (
	errInvoke      = fmt.Errorf("%w: transient service invocation error", ErrInjected)
	errTimeout     = fmt.Errorf("%w: service invocation timed out", ErrInjected)
	errDeploy      = fmt.Errorf("%w: transient deployment error", ErrInjected)
	errJournal     = fmt.Errorf("%w: journal write error", ErrInjected)
	errJournalTorn = fmt.Errorf("%w: torn journal write", ErrInjected)
)

// Fault is one drawn perturbation.
type Fault struct {
	// Kind classifies the fault; FaultNone means proceed untouched.
	Kind FaultKind
	// Delay is the fault's duration in model seconds (delays,
	// slow-downs); zero otherwise.
	Delay float64
	// Err is the error the operation should surface, nil for kinds that
	// only shift timing.
	Err error
}

// ChaosConfig parameterises a fault schedule. All probabilities are per
// draw in [0,1]; the kinds of one boundary are mutually exclusive per
// draw (their probabilities are read as adjacent intervals, so their
// sum should stay ≤ 1). Durations are model seconds. The zero value
// disables chaos entirely.
type ChaosConfig struct {
	// Seed selects the deterministic fault schedule; runs with the same
	// seed and config draw identical per-boundary fault sequences.
	Seed int64

	// MessageDropP is the probability a delivery attempt is dropped.
	// Dropped deliveries are redelivered after RedeliverDelay (bounded),
	// so transport stays at-least-once — the floor the sequence-number
	// dedup turns into exactly-once.
	MessageDropP float64
	// MessageDupP is the probability a delivery is duplicated.
	MessageDupP float64
	// MessageDelayP is the probability a delivery is delayed by up to
	// MessageDelayMax model seconds.
	MessageDelayP float64
	// MessageDelayMax bounds injected delivery delays (default 8).
	MessageDelayMax float64
	// MessageReorderP is the probability a delivery is swapped with its
	// predecessor in the subscriber's pending batch.
	MessageReorderP float64
	// RedeliverDelay is the model-time lag before a dropped or
	// duplicated delivery is (re)attempted (default 4).
	RedeliverDelay float64

	// InvokeErrorP is the probability a service invocation fails fast
	// with a transient error.
	InvokeErrorP float64
	// InvokeTimeoutP is the probability an invocation runs its full
	// duration and then fails (response lost).
	InvokeTimeoutP float64
	// InvokeSlowP is the probability an invocation is stretched by up to
	// InvokeSlowMax model seconds.
	InvokeSlowP float64
	// InvokeSlowMax bounds injected invocation slow-downs (default 10).
	InvokeSlowMax float64

	// DeployErrorP is the probability a deployment attempt fails with a
	// transient error.
	DeployErrorP float64

	// JournalErrorP is the probability a journal write fails without
	// touching the segment.
	JournalErrorP float64
	// JournalTornP is the probability a journal write persists only a
	// prefix of its frame before failing.
	JournalTornP float64
	// JournalSlowSyncP is the probability an fsync stalls for up to
	// JournalSyncDelayMax model seconds.
	JournalSlowSyncP float64
	// JournalSyncDelayMax bounds injected fsync stalls (default 2).
	JournalSyncDelayMax float64

	// SocketDropP is the probability a transport-level publish dispatch
	// is dropped. Like broker drops, a dropped dispatch is re-attempted
	// after RedeliverDelay (bounded), so the socket stays at-least-once.
	SocketDropP float64
	// SocketDupP is the probability a transport-level publish is
	// dispatched twice (the second copy after RedeliverDelay).
	SocketDupP float64
	// SocketDelayP is the probability a transport-level publish is
	// delayed by up to SocketDelayMax model seconds before reaching the
	// broker — a genuine reordering against concurrent traffic.
	SocketDelayP float64
	// SocketDelayMax bounds injected socket delays (default 8).
	SocketDelayMax float64
	// SocketReorderP is the probability a transport-level publish is
	// held back for RedeliverDelay so the dispatch behind it overtakes.
	SocketReorderP float64

	// SpaceDropP is the probability one status message's fold into the
	// space is deferred to a later batch (never lost: the space flushes
	// deferred messages on subsequent folds and at shutdown).
	SpaceDropP float64
	// SpaceDupP is the probability one status message is folded twice.
	SpaceDupP float64

	// MaxConsecutive forces a no-fault draw after this many consecutive
	// faults on one boundary, keeping retry budgets sufficient (default
	// 3; negative disables the cap).
	MaxConsecutive int
}

// Enabled reports whether any fault probability is set.
func (c ChaosConfig) Enabled() bool {
	return c.MessageDropP > 0 || c.MessageDupP > 0 || c.MessageDelayP > 0 ||
		c.MessageReorderP > 0 || c.InvokeErrorP > 0 || c.InvokeTimeoutP > 0 ||
		c.InvokeSlowP > 0 || c.DeployErrorP > 0 || c.JournalErrorP > 0 ||
		c.JournalTornP > 0 || c.JournalSlowSyncP > 0 ||
		c.SocketDropP > 0 || c.SocketDupP > 0 || c.SocketDelayP > 0 ||
		c.SocketReorderP > 0 || c.SpaceDropP > 0 || c.SpaceDupP > 0
}

// withDefaults fills unset durations and caps.
func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.MessageDelayMax <= 0 {
		c.MessageDelayMax = 8
	}
	if c.RedeliverDelay <= 0 {
		c.RedeliverDelay = 4
	}
	if c.InvokeSlowMax <= 0 {
		c.InvokeSlowMax = 10
	}
	if c.JournalSyncDelayMax <= 0 {
		c.JournalSyncDelayMax = 2
	}
	if c.SocketDelayMax <= 0 {
		c.SocketDelayMax = 8
	}
	if c.MaxConsecutive == 0 {
		c.MaxConsecutive = 3
	}
	return c
}

// SettleSeconds returns the model-time drain the engine should wait
// after completion before reading final state: long enough for the
// worst redelivery chain and the largest injected delay to land. Zero
// when no message faults are configured.
func (c ChaosConfig) SettleSeconds() float64 {
	msg := c.MessageDropP > 0 || c.MessageDupP > 0 || c.MessageDelayP > 0 || c.MessageReorderP > 0
	sock := c.SocketDropP > 0 || c.SocketDupP > 0 || c.SocketDelayP > 0 || c.SocketReorderP > 0
	space := c.SpaceDropP > 0 || c.SpaceDupP > 0
	if !msg && !sock && !space {
		return 0
	}
	c = c.withDefaults()
	var d float64
	if msg {
		d += c.MessageDelayMax + 3*c.RedeliverDelay + 2
	}
	if sock {
		// A socket fault feeds the broker late; its worst chain stacks on
		// top of whatever the message boundary may add afterwards.
		d += c.SocketDelayMax + 3*c.RedeliverDelay + 2
	}
	if space {
		// Deferred folds flush on the next batch or the serve loop's
		// real-time ticker; a small drain covers the tail.
		d += 2
	}
	return d
}

// RetryConfig bounds the retry-with-backoff applied to transient faults
// at the invocation, deployment and journal boundaries. The zero value
// means defaults: 5 attempts, 0.5 model-second base backoff, factor 2.
type RetryConfig struct {
	// MaxAttempts is the total attempt budget (first try included).
	MaxAttempts int
	// BackoffBase is the delay after the first failed attempt, in model
	// seconds.
	BackoffBase float64
	// BackoffFactor multiplies the delay after each further failure.
	BackoffFactor float64
}

// WithDefaults fills unset fields with the documented defaults.
func (c RetryConfig) WithDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 0.5
	}
	if c.BackoffFactor <= 0 {
		c.BackoffFactor = 2
	}
	return c
}

// Delay returns the backoff before attempt+1, given that 1-based
// attempt just failed: BackoffBase × BackoffFactor^(attempt-1).
func (c RetryConfig) Delay(attempt int) float64 {
	d := c.BackoffBase
	for i := 1; i < attempt; i++ {
		d *= c.BackoffFactor
	}
	return d
}

// Schedule is a live fault schedule: per-boundary seeded RNG streams,
// fault counters, and the consecutive-fault cap. All methods are safe
// for concurrent use and safe on a nil receiver (a nil *Schedule never
// injects), so call sites need no guards.
type Schedule struct {
	cfg     ChaosConfig
	points  [boundaryCount]chaosPoint
	sleepMu sync.RWMutex
	sleeper func(ctx context.Context, seconds float64) error

	// obsDraws / obsFaults mirror the per-boundary draw and injected-
	// fault counts into a metrics registry (SetMetrics); nil entries
	// are ignored, so an un-wired schedule costs nothing extra.
	obsDraws  [boundaryCount]*obs.Counter
	obsFaults [boundaryCount]*obs.Counter
}

// SetMetrics mirrors the schedule's per-boundary draw and fault counts
// into reg: ginflow_chaos_draws_total{boundary} counts every Draw and
// ginflow_chaos_faults_total{boundary} the draws that injected a fault.
// Install before traffic flows (counters start at the call).
func (s *Schedule) SetMetrics(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	for b := Boundary(0); b < boundaryCount; b++ {
		lbl := obs.L("boundary", b.String())
		s.obsDraws[b] = reg.Counter("ginflow_chaos_draws_total",
			"Fault-schedule draws per boundary.", lbl)
		s.obsFaults[b] = reg.Counter("ginflow_chaos_faults_total",
			"Injected chaos faults per boundary.", lbl)
	}
}

type chaosPoint struct {
	mu     sync.Mutex
	rng    *rand.Rand
	consec int
	counts map[FaultKind]int64
}

// NewSchedule builds a schedule from cfg (defaults applied). The
// returned schedule injects nothing until the config has a non-zero
// probability; install a sleeper with SetSleeper to give backoff and
// stall faults a clock.
func NewSchedule(cfg ChaosConfig) *Schedule {
	cfg = cfg.withDefaults()
	s := &Schedule{cfg: cfg}
	for b := Boundary(0); b < boundaryCount; b++ {
		s.points[b].rng = rand.New(rand.NewSource(splitmix(cfg.Seed ^ int64(b+1))))
		s.points[b].counts = map[FaultKind]int64{}
	}
	return s
}

// splitmix finalises a seed so adjacent boundary seeds land far apart.
func splitmix(x int64) int64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Enabled reports whether the schedule can inject anything.
func (s *Schedule) Enabled() bool {
	return s != nil && s.cfg.Enabled()
}

// Config returns the schedule's defaults-applied configuration (zero
// value on a nil schedule).
func (s *Schedule) Config() ChaosConfig {
	if s == nil {
		return ChaosConfig{}
	}
	return s.cfg
}

// SettleSeconds returns the post-completion drain the configuration
// calls for (zero on a nil schedule).
func (s *Schedule) SettleSeconds() float64 {
	if s == nil {
		return 0
	}
	return s.cfg.SettleSeconds()
}

// SetSleeper installs the clock used by Sleep — normally the cluster
// clock's SleepCtx, so chaos stalls and retry backoffs advance model
// time.
func (s *Schedule) SetSleeper(fn func(ctx context.Context, seconds float64) error) {
	if s == nil {
		return
	}
	s.sleepMu.Lock()
	s.sleeper = fn
	s.sleepMu.Unlock()
}

// Sleep stalls for the given model seconds on the installed sleeper;
// without one (or on a nil schedule) it returns immediately. ctx names
// the caller to a virtual clock (a participant passes the context that
// carries its handle); a stall is never cut short by ctx ending.
func (s *Schedule) Sleep(ctx context.Context, seconds float64) {
	if s == nil || seconds <= 0 {
		return
	}
	s.sleepMu.RLock()
	fn := s.sleeper
	s.sleepMu.RUnlock()
	if fn != nil {
		_ = fn(context.WithoutCancel(ctx), seconds)
	}
}

// Draw returns the next fault of a boundary's stream. After
// MaxConsecutive consecutive faults on one boundary the next draw is
// forced to FaultNone, so bounded retries always see a success window.
func (s *Schedule) Draw(b Boundary) Fault {
	if s == nil || b < 0 || b >= boundaryCount {
		return Fault{}
	}
	p := &s.points[b]
	p.mu.Lock()
	defer p.mu.Unlock()
	s.obsDraws[b].Inc()
	if s.cfg.MaxConsecutive > 0 && p.consec >= s.cfg.MaxConsecutive {
		p.consec = 0
		p.counts[FaultNone]++
		return Fault{}
	}
	f := s.drawLocked(b, p.rng)
	if f.Kind == FaultNone {
		p.consec = 0
	} else {
		p.consec++
		s.obsFaults[b].Inc()
	}
	p.counts[f.Kind]++
	return f
}

// drawLocked maps one uniform draw onto the boundary's fault intervals.
func (s *Schedule) drawLocked(b Boundary, rng *rand.Rand) Fault {
	x := rng.Float64()
	c := s.cfg
	switch b {
	case BoundaryMessage:
		if x < c.MessageDropP {
			return Fault{Kind: FaultDrop}
		}
		x -= c.MessageDropP
		if x < c.MessageDupP {
			return Fault{Kind: FaultDuplicate}
		}
		x -= c.MessageDupP
		if x < c.MessageDelayP {
			return Fault{Kind: FaultDelay, Delay: rng.Float64() * c.MessageDelayMax}
		}
		x -= c.MessageDelayP
		if x < c.MessageReorderP {
			return Fault{Kind: FaultReorder}
		}
	case BoundaryInvoke:
		if x < c.InvokeErrorP {
			return Fault{Kind: FaultError, Err: errInvoke}
		}
		x -= c.InvokeErrorP
		if x < c.InvokeTimeoutP {
			return Fault{Kind: FaultTimeout, Err: errTimeout}
		}
		x -= c.InvokeTimeoutP
		if x < c.InvokeSlowP {
			return Fault{Kind: FaultSlow, Delay: rng.Float64() * c.InvokeSlowMax}
		}
	case BoundaryDeploy:
		if x < c.DeployErrorP {
			return Fault{Kind: FaultError, Err: errDeploy}
		}
	case BoundaryJournalWrite:
		if x < c.JournalErrorP {
			return Fault{Kind: FaultError, Err: errJournal}
		}
		x -= c.JournalErrorP
		if x < c.JournalTornP {
			return Fault{Kind: FaultTorn, Err: errJournalTorn}
		}
	case BoundaryJournalSync:
		if x < c.JournalSlowSyncP {
			return Fault{Kind: FaultSlow, Delay: rng.Float64() * c.JournalSyncDelayMax}
		}
	case BoundarySocket:
		if x < c.SocketDropP {
			return Fault{Kind: FaultDrop}
		}
		x -= c.SocketDropP
		if x < c.SocketDupP {
			return Fault{Kind: FaultDuplicate}
		}
		x -= c.SocketDupP
		if x < c.SocketDelayP {
			return Fault{Kind: FaultDelay, Delay: rng.Float64() * c.SocketDelayMax}
		}
		x -= c.SocketDelayP
		if x < c.SocketReorderP {
			return Fault{Kind: FaultReorder}
		}
	case BoundarySpace:
		if x < c.SpaceDropP {
			return Fault{Kind: FaultDrop}
		}
		x -= c.SpaceDropP
		if x < c.SpaceDupP {
			return Fault{Kind: FaultDuplicate}
		}
	}
	return Fault{}
}

// Counts returns a snapshot of the injected-fault tallies, keyed
// "boundary/kind" (FaultNone and untouched kinds omitted). Nil on a nil
// schedule.
func (s *Schedule) Counts() map[string]int64 {
	if s == nil {
		return nil
	}
	out := map[string]int64{}
	for b := Boundary(0); b < boundaryCount; b++ {
		p := &s.points[b]
		p.mu.Lock()
		for k, n := range p.counts {
			if k == FaultNone || n == 0 {
				continue
			}
			out[fmt.Sprintf("%s/%s", b, k)] = n
		}
		p.mu.Unlock()
	}
	return out
}

// Faults returns the total number of injected (non-FaultNone) draws.
func (s *Schedule) Faults() int64 {
	var total int64
	for _, n := range s.Counts() {
		total += n
	}
	return total
}
