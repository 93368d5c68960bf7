package main

import (
	"fmt"
	"os"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/core"
	"ginflow/internal/executor"
	"ginflow/internal/hoclflow"
	"ginflow/internal/montage"
	"ginflow/internal/mq"
	"ginflow/internal/obs"
	"ginflow/internal/transport"
	"ginflow/internal/workflow"
)

// workload is one fixed scenario of the benchmark: the workflow each
// client submits, the platform it runs on and the reference its outputs
// are checked against. README.md records why each one exists.
type workload struct {
	name string
	// clients is the closed-loop client count: each client submits its
	// next session only after the previous one returned from Wait.
	clients int
	// fresh builds a new Manager for every session (the one-shot
	// shape) instead of sharing one Manager across all sessions.
	fresh   bool
	virtual bool
	// scale is the real-time cost of one model second (real clock only).
	scale   time.Duration
	broker  mq.Kind
	journal bool
	// workers is the number of in-process JoinCluster workers attached
	// over loopback TCP (0: no listener).
	workers int
	nodes   int
	cores   int

	def      func() *workflow.Definition
	services func() *agent.Registry
	// warmDef is the workflow the set-up warm-up runs (nil: def); the
	// warm-up of a fresh-Manager workload runs on a throwaway Manager.
	warmDef func() *workflow.Definition
	warmups int // warm-up sessions per client

	exit       string
	wantResult string
	// wantTotal pins the model-time TotalTime of every session; 0 skips
	// the check (real-clock runs are not bit-deterministic).
	wantTotal float64

	// tailCeiling caps the tail percentile so it stays put as the
	// session count drifts between runs.
	tailCeiling float64
	// parked is the number of agents waiting at once, the waiter count
	// the scheduler probe parks.
	parked int
}

func diamondServices() *agent.Registry {
	reg := agent.NewRegistry()
	reg.RegisterNoop(0.1, "split", "work", "merge")
	return reg
}

func montageServices() *agent.Registry {
	reg := agent.NewRegistry()
	montage.RegisterServices(reg)
	return reg
}

func diamond(h, v int) func() *workflow.Definition {
	return func() *workflow.Definition {
		return workflow.Diamond(workflow.DefaultDiamondSpec(h, v, false))
	}
}

// workloads returns the benchmark's scenarios by name.
func workloads() map[string]*workload {
	return map[string]*workload{
		"mesh": {
			name: "mesh", clients: 1, fresh: true, virtual: true,
			broker: mq.KindQueue, nodes: 100, cores: 101,
			def: diamond(100, 100), services: diamondServices,
			warmDef: diamond(20, 20), warmups: 1,
			exit: workflow.DiamondMergeName, wantResult: `"out-merge"`,
			wantTotal:   meshTotal,
			tailCeiling: 100, parked: 100*100 + 2,
		},
		"fan": {
			name: "fan", clients: 2, virtual: true,
			broker: mq.KindQueue,
			def:    diamond(2, 2), services: diamondServices, warmups: 250,
			exit: workflow.DiamondMergeName, wantResult: `"out-merge"`,
			wantTotal:   fanTotal,
			tailCeiling: 99, parked: 2 * 6,
		},
		"durable": {
			name: "durable", clients: 2, scale: time.Microsecond,
			broker: mq.KindLog, journal: true,
			def: montage.Workflow, services: montageServices, warmups: 10,
			exit: "MJPEG", wantResult: `"mjpeg[1]"`,
			tailCeiling: 95, parked: 2 * montage.TotalTasks,
		},
		"remote": {
			name: "remote", clients: 2, scale: time.Microsecond,
			broker: mq.KindQueue, workers: 2,
			def: diamond(8, 8), services: diamondServices, warmups: 30,
			exit: workflow.DiamondMergeName, wantResult: `"out-merge"`,
			tailCeiling: 95, parked: 2 * (8*8 + 2),
		},
	}
}

// Pinned model-time results (TotalTime, model seconds). Virtual runs are
// deterministic and placement-independent, so a session whose model
// time differs computed something else.
const (
	meshTotal = 719.71
	fanTotal  = 17.31
	// modelEps absorbs float rounding: a session's model time is the
	// difference of two readings of a clock that keeps counting across
	// the sessions of a long-lived Manager.
	modelEps = 1e-6
)

// env is one Manager with everything a workload attaches to it:
// a private metrics registry, a journal directory, in-process workers.
type env struct {
	mgr     *core.Manager
	reg     *obs.Registry
	workers []*transport.Node
	jdir    string
}

// newEnv builds a Manager for the workload. Journal directories are
// created under workdir and removed by close.
func newEnv(w *workload, seed int64, workdir string) (*env, error) {
	e := &env{reg: obs.NewRegistry()}
	cfg := core.Config{
		Executor: executor.KindSSH,
		Broker:   w.broker,
		Cluster: cluster.Config{
			Nodes: w.nodes, CoresPerNode: w.cores, Seed: seed,
			Virtual: w.virtual, Scale: w.scale,
		},
		Timeout: 60 * time.Second,
		Metrics: e.reg,
	}
	if w.journal {
		if err := os.MkdirAll(workdir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(workdir, "journal-")
		if err != nil {
			return nil, err
		}
		e.jdir = dir
		cfg.Journal.Dir = dir
	}
	if w.workers > 0 {
		cfg.Listen = "127.0.0.1:0"
	}
	mgr, err := core.NewManager(cfg)
	if err != nil {
		e.close()
		return nil, err
	}
	e.mgr = mgr
	for i := 0; i < w.workers; i++ {
		n, err := transport.Join(mgr.ListenerAddr(), transport.NodeConfig{Services: w.services()})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("join worker %d: %w", i, err)
		}
		e.workers = append(e.workers, n)
	}
	deadline := time.Now().Add(10 * time.Second)
	for mgr.ConnectedNodes() < w.workers {
		if time.Now().After(deadline) {
			e.close()
			return nil, fmt.Errorf("workers never joined (%d of %d)", mgr.ConnectedNodes(), w.workers)
		}
		time.Sleep(time.Millisecond)
	}
	return e, nil
}

// close stops the workers, then the Manager, and removes the journal.
func (e *env) close() error {
	if e == nil {
		return nil
	}
	var first error
	for _, n := range e.workers {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	if e.mgr != nil {
		if err := e.mgr.Close(); err != nil && first == nil {
			first = err
		}
	}
	if e.jdir != "" {
		if err := os.RemoveAll(e.jdir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// check verifies one session's report against the workload's
// reference: the exit task completed with the reference result and, on
// the virtual clock, the pinned model time. Only the exit task's status
// is checked: a session ends when its exit task completes, and on a
// real clock at a microsecond scale an upstream task's last status push
// can still be in flight when the report is cut.
func (w *workload) check(rep *core.Report, tasks int, wantTotal float64) error {
	if rep == nil {
		return fmt.Errorf("no report")
	}
	if len(rep.Statuses) != tasks {
		return fmt.Errorf("%d task statuses, want %d", len(rep.Statuses), tasks)
	}
	if st := rep.Statuses[w.exit]; st != hoclflow.StatusCompleted {
		return fmt.Errorf("exit task %s is %v, want completed", w.exit, st)
	}
	got := rep.Results[w.exit]
	if len(got) != 1 || got[0] != w.wantResult {
		return fmt.Errorf("%s result %q, want [%q]", w.exit, got, w.wantResult)
	}
	if wantTotal != 0 {
		// Other clients' sessions share the broker's modelled occupancy
		// (a shard serves one message at a time), so a session may run
		// later by at most one service time per message they publish;
		// each of them runs the same workflow, so publishes as many as
		// this one did.
		slack := float64(w.clients-1) * float64(rep.Messages) * mq.DefaultQueueServiceTime
		if rep.TotalTime < wantTotal-modelEps || rep.TotalTime > wantTotal+slack+modelEps {
			return fmt.Errorf("model time %v, want %v (+%v occupancy slack)", rep.TotalTime, wantTotal, slack)
		}
	}
	return nil
}
