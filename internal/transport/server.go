package transport

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/mq"
)

// handshakeTimeout bounds how long an accepted connection may take to
// present its HELLO (and a dialing client waits for its WELCOME).
const handshakeTimeout = 10 * time.Second

// maxSocketRedeliveries bounds the chaos drop chain at the socket
// boundary: a publish dropped this many times in a row is forced
// through, mirroring the broker chaos host's bounded-redelivery
// contract — the socket stays at-least-once, never lossy.
const maxSocketRedeliveries = 2

// ServerConfig wires a transport listener to its host.
type ServerConfig struct {
	// Broker is the in-process broker the listener fronts; remote
	// publishes land here and remote subscriptions are served from it.
	Broker mq.Broker
	// Chaos, when enabled, perturbs the socket boundary: each remote
	// publish dispatch may be dropped (bounded redelivery), duplicated,
	// delayed or held for reordering before it reaches the broker. Nil
	// disables the hook. The schedule's sleeper provides the delay
	// clock.
	Chaos *failure.Schedule
}

// Server is the listener side of the network transport: it accepts
// worker connections, assigns node identities, bridges their publish
// and subscribe traffic onto the in-process broker, and carries the
// control conversation (assignments, readiness, start/stop, results)
// for remote sessions. A node's state — its reliable-link outbox,
// receive cursor and subscriptions — survives connection drops; a
// reconnecting worker resumes exactly where the socket broke.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	mu       sync.Mutex
	closed   bool
	nodes    map[uint64]*serverNode
	nextNode uint64
	sessions map[uint64]*RemoteSession

	wg sync.WaitGroup
}

// serverNode is the server-side state of one worker, persistent across
// that worker's connections.
type serverNode struct {
	id   uint64
	name string
	link link

	mu   sync.Mutex
	subs map[uint64]*serverSub
}

// serverSub is one remote subscription: the broker-side subscription
// and the forwarder goroutine's stop signal.
type serverSub struct {
	topic string
	sub   *mq.Subscription
	stop  chan struct{}
}

// Listen starts a transport server on addr ("host:port"; ":0" picks a
// free port, see Addr).
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.Broker == nil {
		return nil, fmt.Errorf("transport: listen: nil broker")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		nodes:    map[uint64]*serverNode{},
		sessions: map[uint64]*RemoteSession{},
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's bound address (the dial target for
// workers, resolving ":0" to the picked port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// NodeCount returns how many worker nodes have joined (connected or
// temporarily dropped; node state persists across reconnects).
func (s *Server) NodeCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.nodes)
}

// NodeIDs returns the joined nodes' handshake-assigned IDs, sorted.
func (s *Server) NodeIDs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint64, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// DropConnections closes every node's current socket without touching
// node state — a test hook simulating network partitions; workers
// reconnect and resume through the outbox replay.
func (s *Server) DropConnections() {
	s.mu.Lock()
	nodes := make([]*serverNode, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	s.mu.Unlock()
	for _, n := range nodes {
		n.link.close()
	}
}

// DropNode closes one node's current socket (state kept, like
// DropConnections).
func (s *Server) DropNode(id uint64) {
	s.mu.Lock()
	n := s.nodes[id]
	s.mu.Unlock()
	if n != nil {
		n.link.close()
	}
}

// Close stops accepting, drops every connection and waits for the
// forwarders and connection handlers to unwind. Node and session state
// is discarded.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	nodes := make([]*serverNode, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, n := range nodes {
		n.link.close()
		n.mu.Lock()
		for id, ss := range n.subs {
			ss.sub.Cancel()
			close(ss.stop)
			delete(n.subs, id)
		}
		n.mu.Unlock()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.handshake(conn)
	}
}

// handshake consumes a connection's HELLO, resolves or creates its node
// identity, answers WELCOME and hands the socket to the node's link
// (which replays any unacknowledged frames).
func (s *Server) handshake(conn net.Conn) {
	defer s.wg.Done()
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, payload, err := readFrame(conn)
	if err != nil || typ != fHello {
		conn.Close()
		return
	}
	h, err := parseHello(payload)
	if err != nil || h.version != protocolVersion {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	var n *serverNode
	rejoined := false
	if h.nodeID == 0 {
		s.nextNode++
		n = &serverNode{id: s.nextNode, name: h.name, subs: map[uint64]*serverSub{}}
		s.nodes[n.id] = n
	} else {
		n = s.nodes[h.nodeID]
		if n == nil {
			// An identity this server never assigned (or a server
			// restart): the worker's broker state is unrecoverable here,
			// so reject rather than silently resume with a hole.
			s.mu.Unlock()
			conn.Close()
			return
		}
		rejoined = true
	}
	var sessions []*RemoteSession
	if rejoined {
		for _, rs := range s.sessions {
			if rs.hasNode(n.id) {
				sessions = append(sessions, rs)
			}
		}
	}
	s.mu.Unlock()

	n.link.onAck(h.lastSeq)
	w := welcomeFrame{version: protocolVersion, nodeID: n.id, lastSeq: n.link.received()}
	if err := writeFrame(conn, fWelcome, encodeWelcome(w)); err != nil {
		conn.Close()
		return
	}
	n.link.attach(conn)
	for _, rs := range sessions {
		rs.notifyReconnect(n.id)
	}
	s.wg.Add(1)
	go s.serveConn(n, conn)
}

// serveConn reads one connection until it breaks, dispatching reliable
// frames exactly once (duplicates replayed after a reconnect are
// discarded by sequence).
func (s *Server) serveConn(n *serverNode, conn net.Conn) {
	defer s.wg.Done()
	defer n.link.detach(conn)
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		switch typ {
		case fPing:
			n.link.sendControl(fPong, nil)
			continue
		case fPong:
			continue
		case fAck:
			c := cursor{buf: payload}
			seq, err := c.uvarint()
			if err != nil {
				return
			}
			n.link.onAck(seq)
			continue
		case fHello, fWelcome:
			return // handshake frames mid-stream: protocol violation
		}
		c := cursor{buf: payload}
		seq, err := c.uvarint()
		if err != nil {
			return
		}
		fresh, err := n.link.accept(seq)
		if err != nil {
			return
		}
		if fresh {
			if err := s.dispatch(n, typ, &c); err != nil {
				return
			}
		}
		// Ack after dispatch: a cumulative ACK certifies processing, the
		// guarantee the client's synchronous Subscribe waits on.
		n.link.sendAck()
	}
}

// dispatch handles one fresh reliable frame from a worker.
func (s *Server) dispatch(n *serverNode, typ byte, c *cursor) error {
	switch typ {
	case fSubscribe:
		subID, err := c.uvarint()
		if err != nil {
			return err
		}
		topic, err := c.str()
		if err != nil {
			return err
		}
		if err := c.done(); err != nil {
			return err
		}
		sub, err := s.cfg.Broker.Subscribe(topic)
		if err != nil {
			return err
		}
		ss := &serverSub{topic: topic, sub: sub, stop: make(chan struct{})}
		n.mu.Lock()
		if _, dup := n.subs[subID]; dup {
			n.mu.Unlock()
			sub.Cancel()
			return nil
		}
		n.subs[subID] = ss
		n.mu.Unlock()
		s.wg.Add(1)
		go s.forward(n, subID, ss)
		return nil

	case fUnsubscribe:
		subID, err := c.uvarint()
		if err != nil {
			return err
		}
		if err := c.done(); err != nil {
			return err
		}
		n.mu.Lock()
		ss := n.subs[subID]
		delete(n.subs, subID)
		n.mu.Unlock()
		if ss != nil {
			ss.sub.Cancel()
			close(ss.stop)
		}
		return nil

	case fPublish:
		p, err := parsePublish(c)
		if err != nil {
			return err
		}
		s.deliverPublish(p, 1)
		return nil

	case fLogReq:
		reqID, err := c.uvarint()
		if err != nil {
			return err
		}
		topic, err := c.str()
		if err != nil {
			return err
		}
		if err := c.done(); err != nil {
			return err
		}
		var msgs []wireMsg
		if rep, ok := s.cfg.Broker.(mq.Replayable); ok {
			log := rep.Log(topic)
			msgs = make([]wireMsg, len(log))
			for i := range log {
				msgs[i] = toWireMsg(log[i])
			}
		}
		n.link.send(fLogResp, func(seq uint64) []byte {
			buf := binary.AppendUvarint(nil, seq)
			buf = binary.AppendUvarint(buf, reqID)
			return encodeMsgs(buf, msgs)
		})
		return nil

	case fReady, fFail, fDone, fEvent:
		return s.dispatchSession(n, typ, c)
	}
	return fmt.Errorf("%w: unexpected type %d from worker", errFrame, typ)
}

// dispatchSession routes a session-scoped frame to its RemoteSession
// (silently dropped if the session is gone — a late frame after Close).
func (s *Server) dispatchSession(n *serverNode, typ byte, c *cursor) error {
	var session uint64
	var blob []byte
	var err error
	if typ == fReady {
		if session, err = c.uvarint(); err != nil {
			return err
		}
		if err = c.done(); err != nil {
			return err
		}
	} else {
		if session, blob, err = parseSessionJSON(c); err != nil {
			return err
		}
	}
	s.mu.Lock()
	rs := s.sessions[session]
	s.mu.Unlock()
	if rs == nil {
		return nil
	}
	switch typ {
	case fReady:
		rs.markReady(n.id)
	case fFail:
		rs.markFailed(n.id, blob)
	case fDone:
		rs.markDone(n.id, blob)
	case fEvent:
		rs.pushEvent(n.id, blob)
	}
	return nil
}

// forward streams one broker subscription to its remote subscriber.
// Each batch is encoded into the BATCH frame immediately — the encode
// copies every payload, satisfying the broker's recycled-batch
// contract — and sent reliably, so a batch that raced a connection
// drop is replayed on reconnect.
func (s *Server) forward(n *serverNode, subID uint64, ss *serverSub) {
	defer s.wg.Done()
	batches := ss.sub.Batches()
	for {
		select {
		case <-ss.stop:
			return
		case batch := <-batches:
			msgs := make([]wireMsg, len(batch))
			for i := range batch {
				msgs[i] = toWireMsg(batch[i])
			}
			n.link.send(fBatch, func(seq uint64) []byte {
				buf := binary.AppendUvarint(nil, seq)
				buf = binary.AppendUvarint(buf, subID)
				return encodeMsgs(buf, msgs)
			})
		}
	}
}

// deliverPublish is the socket-boundary chaos hook: a remote publish
// dispatch may be dropped (bounded, then forced through), duplicated,
// delayed or held back so the dispatch behind it overtakes — the
// real-network fault mix, injected after the frame protocol's own
// sequence dedup so connection-resume logic is never the thing hiding
// a fault. Delays sleep on the chaos schedule's clock.
func (s *Server) deliverPublish(p publishFrame, attempt int) {
	if s.cfg.Chaos.Enabled() {
		cfg := s.cfg.Chaos.Config()
		switch f := s.cfg.Chaos.Draw(failure.BoundarySocket); f.Kind {
		case failure.FaultDrop:
			if attempt <= maxSocketRedeliveries {
				s.chaosGo(cfg.RedeliverDelay, func() { s.deliverPublish(p, attempt+1) })
				return
			}
			// Redelivery budget spent: force the publish through. The
			// socket models at-least-once, never loss.
		case failure.FaultDuplicate:
			s.chaosGo(cfg.RedeliverDelay, func() { s.publish(p) })
		case failure.FaultDelay:
			s.chaosGo(f.Delay, func() { s.publish(p) })
			return
		case failure.FaultReorder:
			s.chaosGo(cfg.RedeliverDelay, func() { s.publish(p) })
			return
		}
	}
	s.publish(p)
}

// chaosGo runs fn after a model-time delay, tracked by the server's
// wait group so Close drains in-flight chaos deliveries.
func (s *Server) chaosGo(delay float64, fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.cfg.Chaos.Sleep(context.Background(), delay)
		fn()
	}()
}

// publish lands one remote publish on the broker. Undecodable
// structural payloads are dropped — a poisoned frame must not kill the
// bridge (the same resilience contract the agents apply to their
// inboxes).
func (s *Server) publish(p publishFrame) {
	if p.kind == kindStructural {
		atoms, err := hocl.DecodeAtoms(p.data)
		if err != nil {
			return
		}
		_ = s.cfg.Broker.PublishAtoms(p.topic, atoms)
		return
	}
	_ = s.cfg.Broker.Publish(p.topic, string(p.data))
}

// toWireMsg encodes a broker message for the wire, copying the payload
// out of the broker-owned batch buffer.
func toWireMsg(m mq.Message) wireMsg {
	w := wireMsg{offset: int64(m.Offset)}
	if m.Structural() {
		w.kind = kindStructural
		w.data = hocl.EncodeAtoms(m.Atoms)
	} else {
		w.kind = kindTextual
		w.data = []byte(m.Payload)
	}
	return w
}

// fromWireMsg decodes a wire message back into a broker message.
func fromWireMsg(topic string, w wireMsg) (mq.Message, error) {
	m := mq.Message{Topic: topic, Offset: int(w.offset)}
	if w.kind == kindStructural {
		atoms, err := hocl.DecodeAtoms(w.data)
		if err != nil {
			return m, err
		}
		if atoms == nil {
			atoms = []hocl.Atom{}
		}
		m.Atoms = atoms
		return m, nil
	}
	m.Payload = string(w.data)
	return m, nil
}

// Assignment is the work order a remote session sends each worker: the
// workflow (JSON, rebuilt node-side into agent specs — service
// implementations and generated functions cannot travel), the subset of
// tasks the worker hosts, and the tuning the in-process engine would
// have applied (failure injection, restart budget, chaos, clock scale).
type Assignment struct {
	// SpaceTopic and TopicPrefix scope the agents to the session's
	// broker namespace, exactly as the in-process supervisor would.
	SpaceTopic  string `json:"space_topic"`
	TopicPrefix string `json:"topic_prefix"`
	// Workflow is the session's workflow definition JSON.
	Workflow json.RawMessage `json:"workflow"`
	// Tasks names the agents this worker hosts.
	Tasks []string `json:"tasks"`
	// FailureP / FailureT parameterise §V-D crash injection node-side.
	FailureP float64 `json:"failure_p,omitempty"`
	FailureT float64 `json:"failure_t,omitempty"`
	// RestartDelay / MaxRecoveries tune the node-side supervisor loop.
	RestartDelay  float64 `json:"restart_delay,omitempty"`
	MaxRecoveries int     `json:"max_recoveries,omitempty"`
	// Seed seeds the worker's local RNG (duration draws, crash plans).
	Seed int64 `json:"seed,omitempty"`
	// ScaleNS is the model clock scale in nanoseconds per model second.
	ScaleNS int64 `json:"scale_ns,omitempty"`
	// Chaos parameterises the worker's invocation-boundary fault
	// schedule; Retry bounds its retries.
	Chaos failure.ChaosConfig `json:"chaos,omitempty"`
	Retry failure.RetryConfig `json:"retry,omitempty"`
}

// NodeDone is a worker's end-of-session stats report.
type NodeDone struct {
	// Failures / Recoveries count injected crashes and respawns on this
	// worker; Duplicates counts deliveries its agents' sequence
	// protocol suppressed.
	Failures   int   `json:"failures"`
	Recoveries int   `json:"recoveries"`
	Duplicates int64 `json:"duplicates"`
}

// nodeFailure is a worker's early-failure report (an escalated agent or
// a spent recovery budget).
type nodeFailure struct {
	Err              string `json:"err"`
	RetriesExhausted bool   `json:"retries_exhausted,omitempty"`
}

// NodeEvent is one trace event forwarded from a worker's agents.
type NodeEvent struct {
	// Node is the emitting worker's handshake-assigned ID.
	Node uint64 `json:"node"`
	// At is the worker-local model time of the event.
	At float64 `json:"at"`
	// Kind, Task, Incarnation and Info mirror trace.Event.
	Kind        string `json:"kind"`
	Task        string `json:"task"`
	Incarnation int    `json:"incarnation"`
	Info        string `json:"info"`
}

// ErrNodeFailed wraps a worker's early-failure report.
type ErrNodeFailed struct {
	// Node identifies the failing worker.
	Node uint64
	// Msg is the worker's rendered error.
	Msg string
	// RetriesExhausted marks a spent retry budget (matches
	// failure.ErrRetriesExhausted through Unwrap at the call site).
	RetriesExhausted bool
}

// Error renders the failure.
func (e *ErrNodeFailed) Error() string {
	return fmt.Sprintf("transport: node %d failed: %s", e.Node, e.Msg)
}

// RemoteSession is the server-side handle of one workflow session's
// remote enactment: it tracks which workers were assigned, barriers on
// their readiness, starts and stops them, and collects their failure
// and completion reports.
type RemoteSession struct {
	id     uint64
	server *Server
	nodes  []uint64

	mu      sync.Mutex
	ready   map[uint64]bool
	dones   map[uint64]NodeDone
	readyCh chan struct{}
	doneCh  chan struct{}
	started bool
	stopped bool

	failed      chan error
	events      chan NodeEvent
	reconnected chan uint64
}

// StartRemote registers a remote session and sends each worker its
// assignment. The workers answer READY once their agents are built and
// subscribed; barrier on that with WaitReady, then Start.
func (s *Server) StartRemote(session uint64, assigns map[uint64]Assignment) (*RemoteSession, error) {
	if len(assigns) == 0 {
		return nil, fmt.Errorf("transport: session %d: no assignments", session)
	}
	rs := &RemoteSession{
		id:          session,
		server:      s,
		ready:       map[uint64]bool{},
		dones:       map[uint64]NodeDone{},
		readyCh:     make(chan struct{}),
		doneCh:      make(chan struct{}),
		failed:      make(chan error, 1),
		events:      make(chan NodeEvent, 1024),
		reconnected: make(chan uint64, 64),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("transport: server closed")
	}
	if _, dup := s.sessions[session]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("transport: session %d already active", session)
	}
	nodes := make([]*serverNode, 0, len(assigns))
	for id := range assigns {
		n := s.nodes[id]
		if n == nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("transport: session %d: unknown node %d", session, id)
		}
		nodes = append(nodes, n)
		rs.nodes = append(rs.nodes, id)
	}
	sort.Slice(rs.nodes, func(i, j int) bool { return rs.nodes[i] < rs.nodes[j] })
	s.sessions[session] = rs
	s.mu.Unlock()

	for _, n := range nodes {
		blob, err := json.Marshal(assigns[n.id])
		if err != nil {
			rs.Close()
			return nil, err
		}
		n.link.send(fAssign, func(seq uint64) []byte {
			return encodeSessionJSON(seq, session, blob)
		})
	}
	return rs, nil
}

// Nodes returns the session's assigned worker IDs, sorted.
func (rs *RemoteSession) Nodes() []uint64 {
	return append([]uint64(nil), rs.nodes...)
}

func (rs *RemoteSession) hasNode(id uint64) bool {
	for _, n := range rs.nodes {
		if n == id {
			return true
		}
	}
	return false
}

// WaitReady blocks until every assigned worker reported READY (its
// agents built and subscribed) or ctx ends.
func (rs *RemoteSession) WaitReady(ctx context.Context) error {
	select {
	case <-rs.readyCh:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("transport: session %d: workers not ready: %w", rs.id, context.Cause(ctx))
	}
}

// Start tells every worker to launch its agents. Call after WaitReady:
// the READY barrier guarantees every inbox subscription reached the
// broker before any agent reduces (the same no-publish-into-the-void
// ordering the in-process engine enforces).
func (rs *RemoteSession) Start() {
	rs.mu.Lock()
	if rs.started {
		rs.mu.Unlock()
		return
	}
	rs.started = true
	rs.mu.Unlock()
	rs.sendAll(fStart)
}

// Stop tells every worker to wind its agents down and report DONE.
func (rs *RemoteSession) Stop() {
	rs.mu.Lock()
	if rs.stopped {
		rs.mu.Unlock()
		return
	}
	rs.stopped = true
	rs.mu.Unlock()
	rs.sendAll(fStop)
}

func (rs *RemoteSession) sendAll(typ byte) {
	rs.server.mu.Lock()
	nodes := make([]*serverNode, 0, len(rs.nodes))
	for _, id := range rs.nodes {
		if n := rs.server.nodes[id]; n != nil {
			nodes = append(nodes, n)
		}
	}
	rs.server.mu.Unlock()
	for _, n := range nodes {
		n.link.send(typ, func(seq uint64) []byte {
			buf := binary.AppendUvarint(nil, seq)
			return binary.AppendUvarint(buf, rs.id)
		})
	}
}

// WaitDone blocks until every worker reported DONE (or ctx ends) and
// returns the aggregated stats.
func (rs *RemoteSession) WaitDone(ctx context.Context) (NodeDone, error) {
	select {
	case <-rs.doneCh:
	case <-ctx.Done():
		return rs.stats(), fmt.Errorf("transport: session %d: workers not done: %w", rs.id, context.Cause(ctx))
	}
	return rs.stats(), nil
}

func (rs *RemoteSession) stats() NodeDone {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var total NodeDone
	for _, d := range rs.dones {
		total.Failures += d.Failures
		total.Recoveries += d.Recoveries
		total.Duplicates += d.Duplicates
	}
	return total
}

// Failed delivers at most one early worker failure (an escalated agent
// or spent recovery budget) — the remote analogue of the in-process
// supervisor's error channel.
func (rs *RemoteSession) Failed() <-chan error { return rs.failed }

// Events delivers trace events forwarded from the workers' agents.
// Delivery is lossy under backpressure, like every event stream in the
// engine.
func (rs *RemoteSession) Events() <-chan NodeEvent { return rs.events }

// Reconnected delivers the ID of a worker whose connection dropped and
// came back — the session's cue to resync that worker's tasks.
func (rs *RemoteSession) Reconnected() <-chan uint64 { return rs.reconnected }

// Close unregisters the session from the server; late frames for it
// are dropped.
func (rs *RemoteSession) Close() {
	rs.server.mu.Lock()
	if rs.server.sessions[rs.id] == rs {
		delete(rs.server.sessions, rs.id)
	}
	rs.server.mu.Unlock()
}

func (rs *RemoteSession) markReady(node uint64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.ready[node] || !rs.hasNode(node) {
		return
	}
	rs.ready[node] = true
	if len(rs.ready) == len(rs.nodes) {
		close(rs.readyCh)
	}
}

func (rs *RemoteSession) markFailed(node uint64, blob []byte) {
	var nf nodeFailure
	if err := json.Unmarshal(blob, &nf); err != nil {
		nf.Err = fmt.Sprintf("unparseable failure report: %v", err)
	}
	select {
	case rs.failed <- &ErrNodeFailed{Node: node, Msg: nf.Err, RetriesExhausted: nf.RetriesExhausted}:
	default:
	}
}

func (rs *RemoteSession) markDone(node uint64, blob []byte) {
	var d NodeDone
	if err := json.Unmarshal(blob, &d); err != nil {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, dup := rs.dones[node]; dup || !rs.hasNode(node) {
		return
	}
	rs.dones[node] = d
	if len(rs.dones) == len(rs.nodes) {
		close(rs.doneCh)
	}
}

func (rs *RemoteSession) pushEvent(node uint64, blob []byte) {
	var e NodeEvent
	if err := json.Unmarshal(blob, &e); err != nil {
		return
	}
	e.Node = node
	select {
	case rs.events <- e:
	default: // lossy, like every other event stream
	}
}

func (rs *RemoteSession) notifyReconnect(node uint64) {
	select {
	case rs.reconnected <- node:
	default:
	}
}
