package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"ginflow/internal/hocl"
	"ginflow/internal/mq"
)

// DialConfig tunes a RemoteBroker connection.
type DialConfig struct {
	// Name is a human-readable label sent in the handshake (hostnames,
	// test case names); it never affects routing.
	Name string
	// PingInterval is the keepalive cadence; zero disables pings
	// (benchmarks measure round-trips, not keepalive noise).
	PingInterval time.Duration
	// LogTimeout bounds a Log replay round-trip (default 10s).
	LogTimeout time.Duration
}

// RemoteBroker is the client side of the network transport: an
// mq.Broker (and mq.Replayable) whose publishes and subscriptions ride
// length-prefixed frames to a Server fronting the real broker. Agents,
// the space client and the journal run against it unchanged.
//
// The connection self-heals: a broken socket triggers a background
// reconnect loop (capped exponential backoff) that re-handshakes with
// the server-assigned node ID, and the reliable link replays every
// unacknowledged frame in order — publishes and subscriptions issued
// during an outage are queued, never lost. Counters and the topic view
// (Published, Topics, PurgeTopics, ShardTopics) are local to this
// client's own traffic; cluster-wide accounting lives on the serving
// broker.
type RemoteBroker struct {
	addr string
	cfg  DialConfig
	link link

	mu        sync.Mutex
	closed    bool
	nodeID    uint64
	nextSub   uint64
	subs      map[uint64]*clientSub
	published map[string]int64
	nextReq   uint64
	logWaits  map[uint64]*logWait

	ctrl     chan controlFrame
	closedCh chan struct{}
	wg       sync.WaitGroup
}

// clientSub is one client-side subscription: its topic and the push
// half of its mq.NewPushSubscription.
type clientSub struct {
	topic string
	push  func([]mq.Message)
}

// logWait is one pending Log round-trip: the reply channel and the
// requested topic (stamped onto the replayed messages, which travel
// without one).
type logWait struct {
	ch    chan []mq.Message
	topic string
}

// controlFrame is a decoded session-control frame (ASSIGN/START/STOP)
// handed to the node runtime.
type controlFrame struct {
	typ     byte
	session uint64
	blob    []byte
}

// Dial connects to a transport server, performs the HELLO/WELCOME
// handshake (receiving a server-assigned node ID) and starts the
// keepalive and reconnect machinery.
func Dial(addr string, cfg DialConfig) (*RemoteBroker, error) {
	if cfg.LogTimeout <= 0 {
		cfg.LogTimeout = 10 * time.Second
	}
	rb := &RemoteBroker{
		addr:      addr,
		cfg:       cfg,
		subs:      map[uint64]*clientSub{},
		published: map[string]int64{},
		logWaits:  map[uint64]*logWait{},
		ctrl:      make(chan controlFrame, 16),
		closedCh:  make(chan struct{}),
	}
	conn, err := rb.connect()
	if err != nil {
		return nil, err
	}
	rb.wg.Add(1)
	go rb.run(conn)
	return rb, nil
}

// NodeID returns the server-assigned node identity (stable across
// reconnects).
func (rb *RemoteBroker) NodeID() uint64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.nodeID
}

// connect dials and handshakes once, attaching the socket to the
// reliable link (which replays any unacknowledged frames).
func (rb *RemoteBroker) connect() (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", rb.addr, handshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", rb.addr, err)
	}
	rb.mu.Lock()
	h := helloFrame{version: protocolVersion, nodeID: rb.nodeID, lastSeq: rb.link.received(), name: rb.cfg.Name}
	rb.mu.Unlock()
	if err := writeFrame(conn, fHello, encodeHello(h)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: handshake write: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, payload, err := readFrame(conn)
	if err != nil || typ != fWelcome {
		conn.Close()
		return nil, fmt.Errorf("transport: handshake: no welcome (type %d, err %v)", typ, err)
	}
	w, err := parseWelcome(payload)
	if err != nil || w.version != protocolVersion {
		conn.Close()
		return nil, fmt.Errorf("transport: handshake: bad welcome (err %v)", err)
	}
	conn.SetReadDeadline(time.Time{})
	rb.mu.Lock()
	rb.nodeID = w.nodeID
	rb.mu.Unlock()
	rb.link.onAck(w.lastSeq)
	rb.link.attach(conn)
	return conn, nil
}

// run owns the connection lifecycle: serve reads until the socket
// breaks, then reconnect with capped backoff until Close.
func (rb *RemoteBroker) run(conn net.Conn) {
	defer rb.wg.Done()
	backoff := 50 * time.Millisecond
	for {
		stopPing := rb.startPing()
		rb.serveConn(conn)
		stopPing()
		rb.link.detach(conn)
		for {
			if rb.isClosed() {
				return
			}
			select {
			case <-rb.closedCh:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			next, err := rb.connect()
			if err == nil {
				conn = next
				backoff = 50 * time.Millisecond
				metReconnects.Inc()
				break
			}
			metRetryDials.Inc()
		}
	}
}

// startPing launches the keepalive ticker for the current connection
// epoch; the returned stop function ends it.
func (rb *RemoteBroker) startPing() func() {
	if rb.cfg.PingInterval <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	rb.wg.Add(1)
	go func() {
		defer rb.wg.Done()
		t := time.NewTicker(rb.cfg.PingInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-rb.closedCh:
				return
			case <-t.C:
				rb.link.sendControl(fPing, nil)
			}
		}
	}()
	return func() { close(stop) }
}

// serveConn reads one connection until it breaks.
func (rb *RemoteBroker) serveConn(conn net.Conn) {
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		switch typ {
		case fPing:
			rb.link.sendControl(fPong, nil)
			continue
		case fPong:
			continue
		case fAck:
			c := cursor{buf: payload}
			seq, err := c.uvarint()
			if err != nil {
				return
			}
			rb.link.onAck(seq)
			continue
		case fHello, fWelcome:
			return
		}
		c := cursor{buf: payload}
		seq, err := c.uvarint()
		if err != nil {
			return
		}
		fresh, err := rb.link.accept(seq)
		if err != nil {
			return
		}
		if fresh {
			if err := rb.dispatch(typ, &c); err != nil {
				return
			}
		}
		rb.link.sendAck()
	}
}

// dispatch handles one fresh reliable frame from the server.
func (rb *RemoteBroker) dispatch(typ byte, c *cursor) error {
	switch typ {
	case fBatch:
		subID, err := c.uvarint()
		if err != nil {
			return err
		}
		msgs, err := c.msgs()
		if err != nil {
			return err
		}
		if err := c.done(); err != nil {
			return err
		}
		rb.mu.Lock()
		cs := rb.subs[subID]
		rb.mu.Unlock()
		if cs == nil {
			return nil // cancelled locally while the batch was in flight
		}
		batch := make([]mq.Message, 0, len(msgs))
		for _, w := range msgs {
			m, err := fromWireMsg(cs.topic, w)
			if err != nil {
				continue // poisoned entry: drop it, keep the stream alive
			}
			batch = append(batch, m)
		}
		if len(batch) > 0 {
			cs.push(batch)
		}
		return nil

	case fLogResp:
		reqID, err := c.uvarint()
		if err != nil {
			return err
		}
		msgs, err := c.msgs()
		if err != nil {
			return err
		}
		if err := c.done(); err != nil {
			return err
		}
		rb.mu.Lock()
		lw := rb.logWaits[reqID]
		delete(rb.logWaits, reqID)
		rb.mu.Unlock()
		if lw != nil {
			out := make([]mq.Message, 0, len(msgs))
			for _, w := range msgs {
				m, err := fromWireMsg(lw.topic, w)
				if err != nil {
					continue
				}
				out = append(out, m)
			}
			lw.ch <- out
		}
		return nil

	case fAssign, fStart, fStop:
		var cf controlFrame
		cf.typ = typ
		var err error
		if typ == fAssign {
			cf.session, cf.blob, err = parseSessionJSON(c)
		} else {
			if cf.session, err = c.uvarint(); err == nil {
				err = c.done()
			}
		}
		if err != nil {
			return err
		}
		select {
		case rb.ctrl <- cf:
		case <-rb.closedCh:
		}
		return nil
	}
	return nil // tolerate unknown server frames
}

// control exposes the session-control stream to the node runtime.
func (rb *RemoteBroker) control() <-chan controlFrame { return rb.ctrl }

// sendReady reports this node's session readiness to the server.
func (rb *RemoteBroker) sendReady(session uint64) {
	rb.link.send(fReady, func(seq uint64) []byte {
		buf := binary.AppendUvarint(nil, seq)
		return binary.AppendUvarint(buf, session)
	})
}

// sendSessionJSON sends a session-scoped JSON frame (FAIL/DONE/EVENT).
func (rb *RemoteBroker) sendSessionJSON(typ byte, session uint64, blob []byte) {
	rb.link.send(typ, func(seq uint64) []byte {
		return encodeSessionJSON(seq, session, blob)
	})
}

// Publish sends a textual message to the serving broker.
func (rb *RemoteBroker) Publish(topic, payload string) error {
	return rb.publish(topic, kindTextual, []byte(payload))
}

// PublishAtoms sends a structural message, encoded with the hocl wire
// codec, to the serving broker.
func (rb *RemoteBroker) PublishAtoms(topic string, atoms []hocl.Atom) error {
	return rb.publish(topic, kindStructural, hocl.EncodeAtoms(atoms))
}

// PublishAtomsCtx is PublishAtoms: a remote broker runs on the real
// clock, where a publish names no participant.
func (rb *RemoteBroker) PublishAtomsCtx(_ context.Context, topic string, atoms []hocl.Atom) error {
	return rb.PublishAtoms(topic, atoms)
}

func (rb *RemoteBroker) publish(topic string, kind byte, data []byte) error {
	rb.mu.Lock()
	if rb.closed {
		rb.mu.Unlock()
		return mq.ErrClosed
	}
	rb.published[topic]++
	rb.mu.Unlock()
	p := publishFrame{topic: topic, kind: kind, data: data}
	rb.link.send(fPublish, func(seq uint64) []byte { return encodePublish(seq, p) })
	return nil
}

// Subscribe opens a remote subscription on the serving broker and
// returns a push-fed local Subscription; cancelling it unsubscribes
// remotely.
func (rb *RemoteBroker) Subscribe(topic string) (*mq.Subscription, error) {
	rb.mu.Lock()
	if rb.closed {
		rb.mu.Unlock()
		return nil, mq.ErrClosed
	}
	rb.nextSub++
	id := rb.nextSub
	rb.mu.Unlock()
	sub, push := mq.NewPushSubscription(func() { rb.unsubscribe(id) })
	rb.mu.Lock()
	rb.subs[id] = &clientSub{topic: topic, push: push}
	rb.mu.Unlock()
	// Synchronous like the in-process broker: wait for the server's
	// post-dispatch ACK, so a publish issued right after Subscribe
	// returns can never beat the subscription to the broker. During an
	// outage this waits for the reconnect to replay the frame.
	acked := rb.link.sendWait(fSubscribe, func(seq uint64) []byte {
		buf := binary.AppendUvarint(nil, seq)
		buf = binary.AppendUvarint(buf, id)
		return appendString(buf, topic)
	})
	select {
	case <-acked:
	case <-rb.closedCh:
		return nil, mq.ErrClosed
	}
	return sub, nil
}

func (rb *RemoteBroker) unsubscribe(id uint64) {
	rb.mu.Lock()
	_, known := rb.subs[id]
	delete(rb.subs, id)
	closed := rb.closed
	rb.mu.Unlock()
	if !known || closed {
		return
	}
	rb.link.send(fUnsubscribe, func(seq uint64) []byte {
		buf := binary.AppendUvarint(nil, seq)
		return binary.AppendUvarint(buf, id)
	})
}

// Published counts this client's own publishes (the serving broker
// holds the cluster-wide count).
func (rb *RemoteBroker) Published() int64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	var n int64
	for _, c := range rb.published {
		n += c
	}
	return n
}

// PublishedPrefix counts this client's own publishes to topics with the
// given prefix.
func (rb *RemoteBroker) PublishedPrefix(prefix string) int64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	var n int64
	for t, c := range rb.published {
		if strings.HasPrefix(t, prefix) {
			n += c
		}
	}
	return n
}

// Topics lists the topics this client has published to under the
// prefix, sorted (a local view; remote publishers are not visible).
func (rb *RemoteBroker) Topics(prefix string) []string {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	var out []string
	for t := range rb.published {
		if strings.HasPrefix(t, prefix) {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// PurgeTopics forgets this client's local record of matching topics and
// returns how many were dropped. Server-side retention is owned by the
// session manager, which purges the real broker directly.
func (rb *RemoteBroker) PurgeTopics(prefix string) int {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	n := 0
	for t := range rb.published {
		if strings.HasPrefix(t, prefix) {
			delete(rb.published, t)
			n++
		}
	}
	return n
}

// ShardCount reports 1: the wire is a single ordered stream; real
// sharding happens on the serving broker.
func (rb *RemoteBroker) ShardCount() int { return 1 }

// ShardTopics lists the local topic view for shard 0 (nil otherwise).
func (rb *RemoteBroker) ShardTopics(shard int, prefix string) []string {
	if shard != 0 {
		return nil
	}
	return rb.Topics(prefix)
}

// Log fetches a topic's retained log from the serving broker (the
// mq.Replayable contract agents use for inbox replay after a crash).
// Returns nil if the serving broker is not replayable or the round trip
// times out.
func (rb *RemoteBroker) Log(topic string) []mq.Message {
	rb.mu.Lock()
	if rb.closed {
		rb.mu.Unlock()
		return nil
	}
	rb.nextReq++
	id := rb.nextReq
	lw := &logWait{ch: make(chan []mq.Message, 1), topic: topic}
	rb.logWaits[id] = lw
	rb.mu.Unlock()
	rb.link.send(fLogReq, func(seq uint64) []byte {
		buf := binary.AppendUvarint(nil, seq)
		buf = binary.AppendUvarint(buf, id)
		return appendString(buf, topic)
	})
	select {
	case msgs := <-lw.ch:
		return msgs
	case <-time.After(rb.cfg.LogTimeout):
	case <-rb.closedCh:
	}
	rb.mu.Lock()
	delete(rb.logWaits, id)
	rb.mu.Unlock()
	return nil
}

func (rb *RemoteBroker) isClosed() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.closed
}

// Close tears the connection down and stops the reconnect loop.
// Outstanding local subscriptions simply stop receiving.
func (rb *RemoteBroker) Close() error {
	rb.mu.Lock()
	if rb.closed {
		rb.mu.Unlock()
		return nil
	}
	rb.closed = true
	rb.mu.Unlock()
	close(rb.closedCh)
	rb.link.close()
	rb.wg.Wait()
	return nil
}
