// Package cluster simulates the distributed platform GinFlow runs on —
// the stand-in for the paper's Grid'5000 testbed (§V: up to 25 nodes,
// 1 Gbps Ethernet, two service agents per core).
//
// All modelled durations are expressed in model seconds and realised by
// sleeping scaledDuration = modelSeconds × Clock.Scale real time. With
// the default scale of 1 ms per model second, an experiment the paper
// reports as 484 s runs in roughly half a real second while preserving
// every concurrency interleaving. Reported numbers are read back in
// model seconds, so they are directly comparable to the paper's figures.
package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// DefaultScale is the default real-time cost of one model second.
const DefaultScale = time.Millisecond

// Clock converts model time to scaled real time — or, in virtual mode,
// advances model time by discrete events without sleeping at all (see
// vclock.go for the scheduling discipline). The zero value is not
// usable; use NewClock or NewVirtualClock.
type Clock struct {
	scale time.Duration
	start time.Time
	v     *vsched // non-nil in virtual mode
}

// NewClock returns a clock charging `scale` of real time per model
// second. A non-positive scale falls back to DefaultScale.
func NewClock(scale time.Duration) *Clock {
	if scale <= 0 {
		scale = DefaultScale
	}
	return &Clock{scale: scale, start: time.Now()}
}

// NewVirtualClock returns a discrete-event clock: Sleep and SleepCtx
// park the calling participant with the scheduler instead of sleeping
// real time, and Now() jumps to the earliest pending deadline whenever
// every participant is blocked. Goroutines using a virtual clock must
// join the schedule via GoCtx (or Go/Enter) and only block through the
// clock (or a Cond); see vclock.go.
func NewVirtualClock() *Clock {
	return &Clock{scale: DefaultScale, v: newVsched()}
}

// Virtual reports whether this is a discrete-event clock.
func (c *Clock) Virtual() bool { return c.v != nil }

// Scale returns the real-time cost of one model second.
func (c *Clock) Scale() time.Duration { return c.scale }

// Sleep blocks for the scaled equivalent of the given model seconds.
// Negative or zero durations return immediately. On a virtual clock
// Sleep carries no participant handle: it is the sleep of an anonymous
// participant holding the token (Go, Enter) or else of an outside
// caller. A GoCtx participant sleeps with SleepCtx on its context.
func (c *Clock) Sleep(modelSeconds float64) {
	if c.v != nil {
		c.v.sleep(nil, modelSeconds)
		return
	}
	if modelSeconds <= 0 {
		return
	}
	time.Sleep(time.Duration(modelSeconds * float64(c.scale)))
}

// SleepCtx blocks like Sleep but returns early with ctx.Err() when the
// context ends first — the interruption point that lets a cancelled
// workflow session release its agents without draining their in-flight
// modelled invocations. On a virtual clock ctx also names the caller:
// a context derived from a GoCtx participant's carries its handle, and
// the call must then come from that participant while it holds the run
// token (anything else panics). context.WithoutCancel keeps the handle
// for an uninterruptible sleep.
func (c *Clock) SleepCtx(ctx context.Context, modelSeconds float64) error {
	if c.v != nil {
		return c.v.sleep(ctx, modelSeconds)
	}
	if modelSeconds <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(time.Duration(modelSeconds * float64(c.scale)))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Now returns the model seconds elapsed since the clock was created
// (virtual mode: the scheduler's current model time).
func (c *Clock) Now() float64 {
	if c.v != nil {
		return c.v.nowModel()
	}
	return float64(time.Since(c.start)) / float64(c.scale)
}

// Enter joins the calling goroutine to a virtual clock's schedule as an
// anonymous participant, blocking until it is granted the run token. It
// gets no handle: while it holds the token, blocking calls that carry
// none are its own. Use it only where no outside caller blocks on the
// same clock meanwhile (tests, tools owning a private clock), since
// such a caller's handle-less call would be taken for the participant's.
// A real-mode clock ignores the call. Pair with Exit.
func (c *Clock) Enter() {
	if c.v != nil {
		c.v.enter()
	}
}

// Exit removes the anonymous participant holding a virtual clock's run
// token from the schedule, releasing the token; it panics when the
// holder is not anonymous. After Exit the goroutine may block on
// anything (real channels, WaitGroups) without stalling model time, and
// may rejoin later with Enter. A real-mode clock ignores the call.
func (c *Clock) Exit() {
	if c.v != nil {
		c.v.exit(nil)
	}
}

// Go spawns fn on a new goroutine. Under a virtual clock the goroutine
// is registered as an anonymous schedule participant before Go returns
// (sibling start order is the Go call order — deterministic; see Enter
// for what anonymous means); under a real clock it is a plain `go fn()`.
func (c *Clock) Go(fn func()) {
	if c.v != nil {
		c.v.goRun(c.v.newPart(context.Background(), true), func(context.Context) { fn() })
		return
	}
	go fn()
}

// GoCtx spawns fn on a new goroutine, passing it a context derived from
// ctx. Under a virtual clock the goroutine is registered as a schedule
// participant before GoCtx returns (sibling start order is the call
// order), and the derived context carries its participant handle: every
// blocking call fn makes on this clock — SleepCtx, Cond.Wait, and the
// broker, space and journal calls built on them — must pass that
// context or one derived from it, so the scheduler knows the caller
// holds the run token. Under a real clock fn runs as `go fn(ctx)`.
func (c *Clock) GoCtx(ctx context.Context, fn func(context.Context)) {
	if c.v != nil {
		c.v.goRun(c.v.newPart(ctx, false), fn)
		return
	}
	go fn(ctx)
}

// AdvanceTo moves a virtual clock's model time forward by hand without
// firing timers. It is meaningful only on a clock with no active
// participants — unit tests driving Now() values directly. Real-mode
// clocks and backwards targets ignore the call.
func (c *Clock) AdvanceTo(t float64) {
	if c.v != nil {
		c.v.advanceTo(t)
	}
}

// NewCond returns a scheduler-aware condition variable bound to a
// virtual clock, or nil on a real-mode clock (callers keep their
// channel-based paths there).
func (c *Clock) NewCond() *Cond {
	if c.v == nil {
		return nil
	}
	return &Cond{v: c.v}
}

// Node is one machine of the simulated platform. The paper limits
// deployment to two service agents per core (§V); Slots enforces it.
type Node struct {
	ID    int
	Cores int
	// Name is an optional human-readable machine label (config files).
	Name string

	mu    sync.Mutex
	inUse int
}

// Slots returns the agent capacity of the node (2 per core).
func (n *Node) Slots() int { return 2 * n.Cores }

// Allocate reserves one agent slot, reporting false when the node is
// full.
func (n *Node) Allocate() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.inUse >= n.Slots() {
		return false
	}
	n.inUse++
	return true
}

// Release frees one agent slot.
func (n *Node) Release() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.inUse > 0 {
		n.inUse--
	}
}

// InUse returns the number of allocated slots.
func (n *Node) InUse() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inUse
}

func (n *Node) String() string {
	if n.Name != "" {
		return n.Name
	}
	return fmt.Sprintf("node-%d", n.ID)
}

// Config sizes the simulated platform.
type Config struct {
	// Nodes is the machine count (the paper uses 5..25).
	Nodes int
	// CoresPerNode sizes each machine (568 cores / 25 nodes ≈ 23 in the
	// paper; default 24).
	CoresPerNode int
	// LinkLatency is the one-way network latency between two distinct
	// nodes, in model seconds. The default is 0: transport cost is
	// carried by the broker's per-message latency, since host timer
	// granularity (~1.2 ms real) makes sub-model-second sleeps
	// meaningless at the default scale.
	LinkLatency float64
	// Scale is the real-time cost of one model second (default 1 ms).
	Scale time.Duration
	// Seed makes the simulation reproducible (default 1).
	Seed int64
	// Virtual selects the discrete-event clock: modelled sleeps cost no
	// real time, and Now() advances to the earliest pending deadline
	// whenever every participant goroutine is blocked. Scale is ignored
	// in virtual mode.
	Virtual bool
	// NodeSpecs, when non-empty, describes heterogeneous machines
	// explicitly (e.g. loaded from a configuration file); it overrides
	// Nodes and CoresPerNode.
	NodeSpecs []NodeSpec
}

func (c Config) withDefaults() Config {
	if len(c.NodeSpecs) > 0 {
		c.Nodes = len(c.NodeSpecs)
	}
	if c.Nodes <= 0 {
		c.Nodes = 25
	}
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = 24
	}
	if c.LinkLatency < 0 {
		c.LinkLatency = 0
	}
	if c.Scale <= 0 {
		c.Scale = DefaultScale
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Cluster is the simulated platform: nodes, a shared model clock and a
// link-latency model.
type Cluster struct {
	cfg   Config
	nodes []*Node
	clock *Clock

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a cluster from the config (zero values take defaults).
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	clock := NewClock(cfg.Scale)
	if cfg.Virtual {
		clock = NewVirtualClock()
	}
	c := &Cluster{
		cfg:   cfg,
		clock: clock,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := 0; i < cfg.Nodes; i++ {
		node := &Node{ID: i, Cores: cfg.CoresPerNode}
		if i < len(cfg.NodeSpecs) {
			spec := cfg.NodeSpecs[i]
			node.Cores = spec.Cores
			node.Name = spec.Name
		}
		c.nodes = append(c.nodes, node)
	}
	return c
}

// Nodes returns the platform's machines.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns the i-th machine.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Clock returns the shared model clock.
func (c *Cluster) Clock() *Clock { return c.clock }

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Latency returns the one-way message latency between two nodes in model
// seconds (zero within a node).
func (c *Cluster) Latency(from, to *Node) float64 {
	if from == nil || to == nil || from.ID == to.ID {
		return 0
	}
	return c.cfg.LinkLatency
}

// TotalSlots returns the agent capacity of the whole platform.
func (c *Cluster) TotalSlots() int {
	total := 0
	for _, n := range c.nodes {
		total += n.Slots()
	}
	return total
}

// Rand derives a new deterministic RNG stream from the cluster seed.
// Each caller gets an independent stream, so concurrent consumers do not
// contend on one generator.
func (c *Cluster) Rand() *rand.Rand { return rand.New(rand.NewSource(c.RandSeed())) }

// RandSeed draws the seed of the stream Rand would return, for callers
// that build the stream only if they need it. It advances the cluster
// generator exactly as Rand does.
func (c *Cluster) RandSeed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Int63()
}
