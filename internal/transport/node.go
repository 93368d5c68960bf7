package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/failure"
	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// NodeConfig tunes a worker node.
type NodeConfig struct {
	// Name is a human-readable label for the handshake.
	Name string
	// Services resolves the service names the assigned workflows
	// invoke. Implementations cannot travel over the wire, so every
	// worker must register the services its tasks need.
	Services *agent.Registry
	// PingInterval is the keepalive cadence (default 1s; negative
	// disables).
	PingInterval time.Duration
}

// Node is a worker process's runtime: it joins a transport server,
// receives session assignments, rebuilds the assigned agents from the
// workflow definition (resolving services from its local registry) and
// supervises them — crash restarts with inbox replay included — until
// the server says stop. One Node can serve many sessions over its
// lifetime.
type Node struct {
	rb       *RemoteBroker
	services *agent.Registry

	mu       sync.Mutex
	sessions map[uint64]*nodeSession

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Join connects a worker to a transport server and starts serving
// assignments. The returned Node's identity (NodeID) is assigned by the
// server during the handshake.
func Join(addr string, cfg NodeConfig) (*Node, error) {
	if cfg.Services == nil {
		return nil, fmt.Errorf("transport: join: nil service registry")
	}
	ping := cfg.PingInterval
	if ping == 0 {
		ping = time.Second
	} else if ping < 0 {
		ping = 0
	}
	rb, err := Dial(addr, DialConfig{Name: cfg.Name, PingInterval: ping})
	if err != nil {
		return nil, err
	}
	n := &Node{
		rb:       rb,
		services: cfg.Services,
		sessions: map[uint64]*nodeSession{},
		done:     make(chan struct{}),
	}
	n.wg.Add(1)
	go n.loop()
	return n, nil
}

// NodeID returns the server-assigned node identity.
func (n *Node) NodeID() uint64 { return n.rb.NodeID() }

// Close stops every hosted session and disconnects.
func (n *Node) Close() error {
	n.closeOnce.Do(func() { close(n.done) })
	n.mu.Lock()
	sessions := make([]*nodeSession, 0, len(n.sessions))
	for _, ns := range n.sessions {
		sessions = append(sessions, ns)
	}
	n.mu.Unlock()
	for _, ns := range sessions {
		ns.stop()
	}
	err := n.rb.Close()
	n.wg.Wait()
	return err
}

// loop serves the server's control conversation.
func (n *Node) loop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case cf := <-n.rb.control():
			switch cf.typ {
			case fAssign:
				n.handleAssign(cf.session, cf.blob)
			case fStart:
				if ns := n.session(cf.session); ns != nil {
					ns.start()
				}
			case fStop:
				if ns := n.session(cf.session); ns != nil {
					n.wg.Add(1)
					go func() {
						defer n.wg.Done()
						ns.stopAndReport()
					}()
				}
			}
		}
	}
}

func (n *Node) session(id uint64) *nodeSession {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sessions[id]
}

func (n *Node) removeSession(id uint64) {
	n.mu.Lock()
	delete(n.sessions, id)
	n.mu.Unlock()
}

// handleAssign builds a session from its assignment and reports READY,
// or FAIL if the assignment cannot be realised here (unknown service,
// bad workflow JSON).
func (n *Node) handleAssign(session uint64, blob []byte) {
	ns, err := n.buildSession(session, blob)
	if err != nil {
		b, _ := json.Marshal(nodeFailure{Err: err.Error()})
		n.rb.sendSessionJSON(fFail, session, b)
		return
	}
	n.mu.Lock()
	n.sessions[session] = ns
	n.mu.Unlock()
	// READY travels the same ordered stream as the SUBSCRIBE frames
	// before it, so by the time the server routes it every inbox
	// subscription is live on the broker: the no-publish-into-the-void
	// barrier holds across the wire.
	n.rb.sendReady(session)
}

// nodeSession is one assigned session's worker-side state.
type nodeSession struct {
	node *Node
	id   uint64

	clus          *cluster.Cluster
	recorder      *trace.Recorder
	restartDelay  float64
	maxRecoveries int

	specs  []workflow.AgentSpec
	agents []*agent.Agent // first incarnations, subscribed at build time
	newInc func(spec workflow.AgentSpec, incarnation int) *agent.Agent

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu         sync.Mutex
	started    bool
	failures   int
	recoveries int
	duplicates int64

	failOnce sync.Once
}

// buildSession rebuilds the assigned agents from the workflow JSON —
// the wire carries the definition, not the specs: generated reduction
// functions and service bindings are reconstructed locally, exactly as
// the in-process engine builds them.
func (n *Node) buildSession(session uint64, blob []byte) (*nodeSession, error) {
	var a Assignment
	if err := json.Unmarshal(blob, &a); err != nil {
		return nil, fmt.Errorf("bad assignment: %w", err)
	}
	def, err := workflow.FromJSON(a.Workflow)
	if err != nil {
		return nil, err
	}
	specs, err := def.TranslateAgents()
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, t := range a.Tasks {
		want[t] = true
	}
	var mine []workflow.AgentSpec
	for _, spec := range specs {
		if want[spec.Task.Name] {
			mine = append(mine, spec)
			delete(want, spec.Task.Name)
		}
	}
	if len(want) > 0 {
		return nil, fmt.Errorf("assignment names unknown tasks: %v", a.Tasks)
	}
	// Best-effort pre-flight: the statically-declared service of each
	// task must resolve locally (adaptation-swapped services resolve
	// lazily at invoke time and escalate if missing).
	for _, spec := range mine {
		if svc := spec.Task.Service; svc != "" {
			if _, ok := n.services.Lookup(svc); !ok {
				return nil, fmt.Errorf("service %q not registered on this node", svc)
			}
		}
	}

	scale := time.Duration(a.ScaleNS)
	if scale <= 0 {
		scale = time.Millisecond
	}
	clus := cluster.New(cluster.Config{Nodes: 1, Scale: scale, Seed: a.Seed})
	clock := clus.Clock()
	var injector *failure.Injector
	if a.FailureP > 0 {
		injector = failure.New(a.FailureP, a.FailureT, clus.Rand())
	}
	var chaos *failure.Schedule
	if a.Chaos.Enabled() {
		chaos = failure.NewSchedule(a.Chaos)
		chaos.SetSleeper(clock.SleepCtx)
	}

	ns := &nodeSession{
		node:          n,
		id:            session,
		clus:          clus,
		restartDelay:  a.RestartDelay,
		maxRecoveries: a.MaxRecoveries,
		specs:         mine,
	}
	ns.recorder = trace.NewForwarder(clock)
	ns.recorder.AddSink(func(e trace.Event) {
		b, err := json.Marshal(NodeEvent{
			At: e.At, Kind: string(e.Kind), Task: e.Task,
			Incarnation: e.Incarnation, Info: e.Info,
		})
		if err != nil {
			return
		}
		n.rb.sendSessionJSON(fEvent, session, b)
	})
	ns.newInc = func(spec workflow.AgentSpec, incarnation int) *agent.Agent {
		return agent.New(agent.Config{
			Spec:        spec,
			Broker:      n.rb,
			Cluster:     clus,
			Services:    n.services,
			Injector:    injector,
			Chaos:       chaos,
			Retry:       a.Retry,
			SpaceTopic:  a.SpaceTopic,
			TopicPrefix: a.TopicPrefix,
			Incarnation: incarnation,
			Trace:       ns.recorder,
			Metrics:     agent.NewMetrics(nil),
		})
	}
	for _, spec := range mine {
		first := ns.newInc(spec, 0)
		if err := first.Subscribe(); err != nil {
			return nil, err
		}
		ns.agents = append(ns.agents, first)
	}
	return ns, nil
}

// start launches the supervised agent loops.
func (ns *nodeSession) start() {
	ns.mu.Lock()
	if ns.started {
		ns.mu.Unlock()
		return
	}
	ns.started = true
	ns.ctx, ns.cancel = context.WithCancel(context.Background())
	ns.mu.Unlock()
	for i := range ns.specs {
		ns.wg.Add(1)
		go ns.runLoop(ns.specs[i], ns.agents[i])
	}
}

// runLoop mirrors the in-process supervisor: restart crashed
// incarnations (inbox replay via the remote broker's Log) under a
// recovery budget; escalations and spent budgets FAIL the session to
// the server, while the remaining agents keep running until STOP —
// exactly the in-process engine's wind-down semantics.
func (ns *nodeSession) runLoop(spec workflow.AgentSpec, first *agent.Agent) {
	defer ns.wg.Done()
	for incarnation := 0; ; incarnation++ {
		a := first
		if incarnation > 0 || a == nil {
			a = ns.newInc(spec, incarnation)
		}
		err := a.Run(ns.ctx)
		ns.mu.Lock()
		ns.duplicates += a.DuplicatesSuppressed()
		ns.mu.Unlock()
		switch {
		case err == nil:
			return // context ended: orderly shutdown
		case agent.IsCrash(err):
			ns.mu.Lock()
			ns.failures++
			if ns.recoveries >= ns.maxRecoveries {
				ns.mu.Unlock()
				ns.fail(fmt.Errorf("recovery budget exhausted: %w", err))
				return
			}
			ns.recoveries++
			ns.mu.Unlock()
			if ns.clus.Clock().SleepCtx(ns.ctx, ns.restartDelay) != nil {
				return
			}
			ns.recorder.Record(trace.AgentRecovered, spec.Task.Name, incarnation+1, "")
		default:
			var esc *agent.EscalationError
			if errors.As(err, &esc) {
				ns.recorder.Record(trace.AgentEscalated, esc.Task, esc.Incarnation,
					fmt.Sprintf("service %s: %d attempts: %v", esc.Service, esc.Attempts, esc.Cause))
			}
			ns.fail(err)
			return
		}
	}
}

// fail reports the session's first unrecoverable error to the server.
func (ns *nodeSession) fail(err error) {
	ns.failOnce.Do(func() {
		b, _ := json.Marshal(nodeFailure{
			Err:              err.Error(),
			RetriesExhausted: errors.Is(err, failure.ErrRetriesExhausted),
		})
		ns.node.rb.sendSessionJSON(fFail, ns.id, b)
	})
}

// stop cancels the agents and waits for them to unwind. A session
// stopped before start releases its subscriptions by running each
// agent once under an already-cancelled context.
func (ns *nodeSession) stop() {
	ns.mu.Lock()
	started := ns.started
	ns.started = true // bar a late START from relaunching
	ns.mu.Unlock()
	if started {
		ns.cancel()
		ns.wg.Wait()
		return
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range ns.agents {
		_ = a.Run(done)
	}
}

// stopAndReport stops the session and sends the DONE stats report.
func (ns *nodeSession) stopAndReport() {
	ns.stop()
	ns.mu.Lock()
	d := NodeDone{Failures: ns.failures, Recoveries: ns.recoveries, Duplicates: ns.duplicates}
	ns.mu.Unlock()
	blob, _ := json.Marshal(d)
	ns.node.rb.sendSessionJSON(fDone, ns.id, blob)
	ns.node.removeSession(ns.id)
}
