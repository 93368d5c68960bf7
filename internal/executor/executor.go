// Package executor implements GinFlow's executors (paper §IV-C): "the
// role of the executor is to enact the workflow in a specific environment
// ... A distributed executor will (1) claim resources from an
// infrastructure and (2) provision the distributed engine (i.e., the SAs)
// on them."
//
// Three distributed executors are provided — the paper's two plus the
// extension it sketches:
//
//   - SSH: starts agents round-robin over a preconfigured node list,
//     through a bounded pool of parallel connections. Its deployment time
//     grows slightly with the node count (per-node connection setup).
//   - Mesos: delegates placement to the resource-offer cycle of the
//     simulated Mesos master, launching one agent per machine per offer —
//     deployment time shrinks as machines are added.
//   - EC2 (extension, §IV-C): elastic cloud provisioning — instances boot
//     on demand and agents pack densely; deployment time depends on the
//     workload, not the platform size.
//
// The centralized executor (a single HOCL interpreter, no agents) lives
// in the core engine, as it deploys nothing.
package executor

import (
	"context"
	"fmt"
	"math"

	"ginflow/internal/cluster"
	"ginflow/internal/mesos"
	"ginflow/internal/workflow"
)

// Placement assigns one agent spec to a node.
type Placement struct {
	Spec workflow.AgentSpec
	Node *cluster.Node
}

// Executor claims resources and places agents. Deploy returns the
// placements and the modelled deployment duration in model seconds
// (already charged on the cluster clock).
type Executor interface {
	Name() string
	Deploy(ctx context.Context, specs []workflow.AgentSpec, c *cluster.Cluster) ([]Placement, float64, error)
}

// Kind names an executor in configs and CLIs.
type Kind string

const (
	KindSSH         Kind = "ssh"
	KindMesos       Kind = "mesos"
	KindEC2         Kind = "ec2"
	KindCentralized Kind = "centralized"
)

// New builds a distributed executor of the given kind with default
// tuning. KindCentralized returns nil: the engine short-circuits it.
func New(kind Kind) (Executor, error) {
	switch kind {
	case KindSSH:
		return &SSH{}, nil
	case KindMesos:
		return &Mesos{}, nil
	case KindEC2:
		return &EC2{}, nil
	case KindCentralized:
		return nil, nil
	default:
		return nil, fmt.Errorf("executor: unknown kind %q (want %q, %q, %q or %q)",
			kind, KindSSH, KindMesos, KindEC2, KindCentralized)
	}
}

// SSH models the SSH-based executor: "starts the SAs on a predefined set
// of machines ... As the SSH connections are parallelized, the deployment
// time slightly increases with the number of nodes" (§V-C).
type SSH struct {
	// Base is the fixed setup cost in model seconds (default 2.0).
	Base float64
	// PerNodeSetup is the per-machine connection/configuration cost
	// (default 0.25) — the term that makes deployment grow with nodes.
	PerNodeSetup float64
	// AgentStart is the cost of starting one agent over a connection
	// (default 0.6).
	AgentStart float64
	// ParallelConns bounds concurrent SSH connections (default 16).
	ParallelConns int
}

func (s *SSH) withDefaults() SSH {
	d := *s
	if d.Base <= 0 {
		d.Base = 2.0
	}
	if d.PerNodeSetup <= 0 {
		d.PerNodeSetup = 0.25
	}
	if d.AgentStart <= 0 {
		d.AgentStart = 0.6
	}
	if d.ParallelConns <= 0 {
		d.ParallelConns = 16
	}
	return d
}

func (s *SSH) Name() string { return string(KindSSH) }

// Deploy places agents round-robin across the node list, skipping full
// nodes, and charges the modelled deployment time.
func (s *SSH) Deploy(ctx context.Context, specs []workflow.AgentSpec, c *cluster.Cluster) ([]Placement, float64, error) {
	cfg := s.withDefaults()
	placements, err := roundRobin(specs, c)
	if err != nil {
		return nil, 0, err
	}
	n := float64(len(c.Nodes()))
	batches := math.Ceil(float64(len(specs)) / float64(cfg.ParallelConns))
	deploy := cfg.Base + cfg.PerNodeSetup*n + cfg.AgentStart*batches
	if err := sleepCtx(ctx, c.Clock(), deploy); err != nil {
		releaseAll(placements)
		return nil, 0, err
	}
	return placements, deploy, nil
}

// roundRobin allocates one slot per spec, cycling over nodes.
func roundRobin(specs []workflow.AgentSpec, c *cluster.Cluster) ([]Placement, error) {
	nodes := c.Nodes()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("executor: cluster has no nodes")
	}
	placements := make([]Placement, 0, len(specs))
	next := 0
	for _, spec := range specs {
		placed := false
		for try := 0; try < len(nodes); try++ {
			node := nodes[(next+try)%len(nodes)]
			if node.Allocate() {
				placements = append(placements, Placement{Spec: spec, Node: node})
				next = (next + try + 1) % len(nodes)
				placed = true
				break
			}
		}
		if !placed {
			releaseAll(placements)
			return nil, fmt.Errorf("executor: cluster full: %d agents need more than %d slots",
				len(specs), c.TotalSlots())
		}
	}
	return placements, nil
}

func releaseAll(placements []Placement) {
	for _, p := range placements {
		p.Node.Release()
	}
}

// Mesos delegates deployment to the simulated Mesos master (§IV-C): one
// agent per machine per offer round.
type Mesos struct {
	// Master configuration; zero values take mesos defaults.
	Config mesos.Config
}

func (m *Mesos) Name() string { return string(KindMesos) }

func (m *Mesos) Deploy(ctx context.Context, specs []workflow.AgentSpec, c *cluster.Cluster) ([]Placement, float64, error) {
	byID := map[string]workflow.AgentSpec{}
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.Task.Name
		byID[s.Task.Name] = s
	}
	master := mesos.NewMaster(c, m.Config)
	start := c.Clock().Now()
	launches, err := master.RunFramework(ctx, mesos.NewOnePerNodeFramework(ids))
	if err != nil {
		for _, l := range launches {
			l.Node.Release()
		}
		return nil, 0, fmt.Errorf("executor: mesos deployment: %w", err)
	}
	deploy := c.Clock().Now() - start
	placements := make([]Placement, len(launches))
	for i, l := range launches {
		placements[i] = Placement{Spec: byID[l.TaskID], Node: l.Node}
	}
	return placements, deploy, nil
}

// sleepCtx charges a model-time sleep, honouring cancellation at a coarse
// granularity (the whole sleep is one slice; deployment sleeps are
// short). ctx names the caller to a virtual clock.
func sleepCtx(ctx context.Context, clock *cluster.Clock, modelSeconds float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_ = clock.SleepCtx(context.WithoutCancel(ctx), modelSeconds)
	return ctx.Err()
}

var (
	_ Executor = (*SSH)(nil)
	_ Executor = (*Mesos)(nil)
)
