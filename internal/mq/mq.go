// Package mq provides the messaging middleware service agents coordinate
// through (paper §IV-A: "the inter-agents communications rely on a
// message queue middleware which can be either Apache ActiveMQ or
// Kafka"). Two brokers are implemented:
//
//   - QueueBroker stands in for ActiveMQ: in-memory topics, low
//     per-message latency, no persistence — messages delivered to a dead
//     consumer are gone.
//   - LogBroker stands in for Kafka: an append-only log per topic that
//     survives consumer crashes and can be replayed from the beginning,
//     which is exactly the ability the paper's §IV-B recovery mechanism
//     exploits; its per-message latency is higher (the paper measures
//     roughly 4× slower executions, Fig. 14).
//
// Delivery latency is modelled on the cluster clock, so broker choice
// shapes experiment timings the same way it does in the paper.
//
// # Sharding
//
// The broker is partitioned into independent shards (DESIGN.md "Broker
// internals"). Every topic routes through exactly one shard, selected by
// hashing its session-namespace prefix (ShardKey): all topics of one
// Manager session — "wf3.sa.T1", "wf3.ginflow.space" — share a shard, so
// a session's messages queue only behind their own session's traffic,
// while concurrent sessions spread over the shard set instead of
// contending on one lock and one modelled middleware occupancy. Topics
// outside a session namespace hash individually over the same shard
// set, so standalone (un-namespaced) traffic spreads too instead of
// serializing on one default shard's occupancy.
//
// # Batch delivery
//
// Deliveries are batched per subscriber: the broker accumulates a
// subscriber's pending messages and hands over everything due as one
// []Message (Subscription.Batches), so a burst of publishes costs one
// hand-off instead of one channel operation per message. The classic
// per-message feed (Subscription.C) remains as a flattening adapter.
package mq

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ginflow/internal/cluster"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/obs"
)

// Message is one published datum. A message carries its content in one of
// two forms:
//
//   - textual: Payload holds HOCL molecule text (the original wire
//     format, still used by external producers and the CLI);
//   - structural: Atoms holds pre-built molecules shared by reference —
//     the zero-reparse path (DESIGN.md). Payload is empty and Text()
//     renders on demand for logs and debugging.
//
// Structural payloads are frozen: the publisher hands over atoms it will
// no longer mutate, and consumers must not mutate them either (the same
// atoms may be shared by other subscribers and by the broker's replay
// log). hocl.Shareable tells a consumer whether an atom can be ingested
// into a reducing solution by reference or must be cloned first.
type Message struct {
	Topic   string
	Payload string
	Atoms   []hocl.Atom
	// Offset is the message's position in its topic's log (LogBroker
	// only; -1 for QueueBroker deliveries).
	Offset int
}

// Structural reports whether the message carries a structural payload.
func (m Message) Structural() bool { return m.Atoms != nil }

// Text returns the textual form of the payload, rendering structural
// payloads on demand. This is the logging/CLI accessor; hot paths consume
// Atoms directly.
func (m Message) Text() string {
	if m.Atoms != nil {
		return hocl.FormatMolecules(m.Atoms)
	}
	return m.Payload
}

// Broker is the pub/sub surface agents use.
type Broker interface {
	// Publish sends payload text to every current subscriber of topic
	// after the broker's modelled latency.
	Publish(topic, payload string) error
	// PublishAtoms sends a structural payload: the pre-built molecules
	// are delivered (and, on a log broker, retained) by reference, never
	// rendered or re-parsed. The caller must not mutate the atoms after
	// publishing.
	PublishAtoms(topic string, atoms []hocl.Atom) error
	// PublishAtomsCtx is PublishAtoms for a virtual-clock participant:
	// ctx carries its handle (cluster.Clock.GoCtx) to whatever the
	// publish may block on — the journal's inbox write-through, on a log
	// broker. PublishAtoms is PublishAtomsCtx with context.Background().
	PublishAtomsCtx(ctx context.Context, topic string, atoms []hocl.Atom) error
	// Subscribe registers a consumer. Messages published after the
	// subscription are delivered on C (per message) or Batches (in
	// due-order batches).
	Subscribe(topic string) (*Subscription, error)
	// Published returns the total number of messages accepted, an
	// instrumentation counter for the experiment reports.
	Published() int64
	// PublishedPrefix returns the number of messages accepted for topics
	// sharing the given prefix — the per-session message count of a
	// long-lived broker multiplexing namespaced workflow runs.
	PublishedPrefix(prefix string) int64
	// Topics returns the topics under the given prefix that still hold
	// broker state (subscriber lists, retained logs, counters) on any
	// shard, sorted. An empty prefix lists everything.
	Topics(prefix string) []string
	// PurgeTopics drops all broker state for topics sharing the given
	// prefix — subscriber registrations, retained logs and counters, on
	// every shard — and reports how many topics were purged. Sessions
	// call it on completion so a long-lived broker does not accumulate
	// state for every workflow ever run. Purging does not close
	// subscriber channels; consumers still own their Subscription
	// lifecycles.
	PurgeTopics(prefix string) int
	// ShardCount returns the number of independent shards the broker
	// routes topics through.
	ShardCount() int
	// ShardTopics returns the topics under prefix that hold state on one
	// specific shard, sorted — the per-shard view of Topics, for
	// observability and leak checks.
	ShardTopics(shard int, prefix string) []string
	// Close shuts the broker down; subsequent publishes fail.
	Close() error
}

// Replayable is the additional capability of log-backed brokers: the
// persisted history of a topic, used to rebuild a crashed agent's state
// ("we exploit the ability of Kafka to persist the messages ... and to
// replay them on demand", §IV-B).
type Replayable interface {
	Broker
	// Log returns a copy of every message ever published to topic, in
	// publication order.
	Log(topic string) []Message
}

// DefaultShards is the default number of broker shards. A session's
// topics stay on one shard (see ShardKey) while different sessions hash
// apart; topics outside any session namespace are routed by their full
// name, so standalone traffic also spreads over the shard set.
const DefaultShards = 8

// ShardKey extracts the routing key of a topic: its session-namespace
// prefix ("wf<id>.", as minted by the Manager) when present, else the
// empty key. Keying on the namespace keeps all of one session's topics
// on one shard — a session's delivery order and middleware occupancy
// are self-contained — while different sessions hash apart. Topics with
// the empty key are routed by their full name (shardIndex), so
// standalone traffic spreads over the shards instead of serializing.
func ShardKey(topic string) string {
	if len(topic) > 3 && topic[0] == 'w' && topic[1] == 'f' {
		i := 2
		for i < len(topic) && topic[i] >= '0' && topic[i] <= '9' {
			i++
		}
		if i > 2 && i < len(topic) && topic[i] == '.' {
			return topic[:i+1]
		}
	}
	return ""
}

// subscriberBuffer bounds the per-message compatibility feed (C); the
// batch path hands off synchronously and buffers pending messages
// internally instead.
const subscriberBuffer = 4096

// ErrClosed is returned by operations on a closed broker.
var ErrClosed = fmt.Errorf("mq: broker closed")

// ErrCancelled is returned by Next on a cancelled subscription.
var ErrCancelled = fmt.Errorf("mq: subscription cancelled")

// timedMsg pairs a message with its earliest delivery instant in model
// seconds on the broker's clock. Real-mode consumers convert the model
// instant back to a scaled real-time wait; virtual-mode consumers hand
// it to the discrete-event scheduler.
type timedMsg struct {
	msg Message
	due float64
}

// shard is one independent partition of the broker: its own subscriber
// table, its own per-topic counters and its own modelled middleware
// occupancy. Messages on different shards never queue behind each other.
type shard struct {
	mu   sync.RWMutex
	subs map[string][]*subscriber

	// Per-shard observability series (nil until SetMetrics), handed to
	// subscribers at registration so the hot enqueue/hand-off paths touch
	// resolved instrument pointers only. Written under mu; read under mu
	// (Subscribe) — existing subscribers keep whatever they got, which is
	// why SetMetrics must run before traffic flows.
	metDeliveries *obs.Counter
	metBatches    *obs.Counter
	metPending    *obs.Gauge

	// qmu serialises the occupancy bookkeeping of this shard: a shard
	// models one middleware instance (partition), so its messages queue
	// behind each other. nextFree is the model-time instant the shard
	// finishes its current backlog. The per-topic publish counters
	// piggyback on the same critical section.
	qmu      sync.Mutex
	nextFree float64
	perTopic map[string]int64
}

// common implements the shared sharded pub/sub core. Each message is
// delivered after the broker's modelled latency, measured from its
// publication: deliveries are pipelined (a burst of publishes arrives one
// latency later, not serialized behind each other) while per-publisher
// FIFO order per topic is preserved, like an ActiveMQ queue or a Kafka
// partition. Order preservation matters: agents replace their status in
// the shared space, so a stale update must never overtake a fresh one.
type common struct {
	clock   *cluster.Clock
	latency float64 // model seconds per message (propagation)
	// svcTime is the modelled broker occupancy per message (float64
	// bits): the throughput bottleneck that makes message-heavy
	// workloads pay per message. Atomic so SetServiceTime does not
	// contend with delivery.
	svcTime atomic.Uint64

	shards []*shard

	// chaos, when set, perturbs delivery fan-out per (message,
	// subscriber): drop with bounded redelivery, duplicate, delay,
	// reorder. Atomic so installation needs no delivery-path lock.
	chaos atomic.Pointer[failure.Schedule]

	mu     sync.RWMutex
	closed bool

	nextID    atomic.Int64
	published atomic.Int64

	// metPublished / metBatchSize mirror the broker counters into an obs
	// registry once SetMetrics runs. Atomic pointers: installation needs
	// no publish-path lock, and obs instruments are nil-receiver-safe so
	// the unmetered path pays one pointer load.
	metPublished atomic.Pointer[obs.Counter]
	metBatchSize atomic.Pointer[obs.Histogram]
}

func newCommon(clock *cluster.Clock, latency, svcTime float64, nshards int) *common {
	if nshards <= 0 {
		nshards = DefaultShards
	}
	c := &common{clock: clock, latency: latency, shards: make([]*shard, nshards)}
	c.svcTime.Store(math.Float64bits(svcTime))
	for i := range c.shards {
		c.shards[i] = &shard{subs: map[string][]*subscriber{}, perTopic: map[string]int64{}}
	}
	return c
}

// shardFor routes a topic to its shard by FNV-1a over its ShardKey.
func (c *common) shardFor(topic string) *shard {
	return c.shards[c.shardIndex(topic)]
}

func (c *common) shardIndex(topic string) int {
	key := ShardKey(topic)
	if key == "" {
		// No session namespace: hash the full topic so standalone topics
		// spread over the shard set instead of all serializing behind one
		// default shard's modelled occupancy.
		key = topic
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return int(h % uint64(len(c.shards)))
}

// ShardCount returns the number of shards.
func (c *common) ShardCount() int { return len(c.shards) }

// SetMetrics registers the broker's observability series on reg (nil
// takes the process default registry): total publishes, per-shard
// delivery and batch counters, per-shard pending-depth gauges and a
// batch-size histogram. Call before any traffic flows — subscribers
// capture their shard's instruments at Subscribe time.
func (c *common) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	c.metPublished.Store(reg.Counter("ginflow_mq_published_total",
		"Messages accepted by the broker (all topics, all shards)."))
	c.metBatchSize.Store(reg.Histogram("ginflow_mq_batch_size",
		"Messages per delivery batch handed to a subscriber.", obs.BatchSizeBuckets))
	for i, sh := range c.shards {
		lbl := obs.L("shard", strconv.Itoa(i))
		d := reg.Counter("ginflow_mq_deliveries_total",
			"Messages enqueued to subscribers, per shard (duplicates from chaos included).", lbl)
		b := reg.Counter("ginflow_mq_delivery_batches_total",
			"Delivery batches handed to subscribers, per shard.", lbl)
		p := reg.Gauge("ginflow_mq_pending_messages",
			"Messages enqueued but not yet handed to their subscriber, per shard.", lbl)
		sh.mu.Lock()
		sh.metDeliveries, sh.metBatches, sh.metPending = d, b, p
		sh.mu.Unlock()
	}
}

// subscriber is one consumer's delivery state: an unbounded pending
// queue filled by publishers and drained by a per-subscriber goroutine
// that hands due messages over in batches.
type subscriber struct {
	id int64

	// clock translates model due instants into waits: a scaled real
	// sleep in real mode, a scheduler timer in virtual mode. nil for
	// push-fed subscriptions, whose messages are always already due.
	clock *cluster.Clock
	// vcond, set when the clock is virtual, signals "queue became
	// non-empty" to a participant parked in Next. Virtual subscribers
	// have no drain goroutine: delivery happens inside the consumer's
	// Next/TryNext calls, keeping the single-run-token schedule sound.
	vcond *cluster.Cond

	mu    sync.Mutex
	queue []timedMsg
	spare []timedMsg // recycled backing array for queue swaps

	wake chan struct{} // cap 1: "queue is non-empty" signal
	out  chan []Message
	done chan struct{}

	// bufs double-buffer the delivered batch slices: the consumer owns a
	// delivered slice only until its next receive from out, so the two
	// buffers alternate without allocation in steady state.
	bufs [2][]Message
	cur  int

	// flat is the per-message compatibility feed, materialised on first
	// use of Subscription.C.
	flatOnce sync.Once
	flat     chan Message

	// Observability instruments captured from the shard at Subscribe.
	// All nil for push-fed subscriptions and unmetered brokers — obs
	// instruments are nil-receiver-safe, so the hot paths never branch.
	metDeliveries *obs.Counter
	metBatches    *obs.Counter
	metPending    *obs.Gauge
	metBatchSize  *obs.Histogram
}

// enqueue appends a delivery without blocking the publisher.
func (s *subscriber) enqueue(tm timedMsg) {
	s.metDeliveries.Inc()
	s.metPending.Add(1)
	s.mu.Lock()
	s.queue = append(s.queue, tm)
	s.mu.Unlock()
	if s.vcond != nil {
		s.vcond.Broadcast()
		return
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// swapTail swaps the two newest pending deliveries — the chaos
// schedule's within-batch reorder. Only the messages swap; the due
// instants stay in place, so the due sequence the drain loop relies on
// remains monotone while the delivery order genuinely changes.
func (s *subscriber) swapTail() {
	s.mu.Lock()
	if n := len(s.queue); n >= 2 {
		s.queue[n-1].msg, s.queue[n-2].msg = s.queue[n-2].msg, s.queue[n-1].msg
	}
	s.mu.Unlock()
}

// drain moves pending messages to the consumer in due-order batches: it
// swaps the whole pending queue out under the lock (recycling the backing
// arrays), waits for the head's due instant, then hands over every
// message already due as one batch. Because due instants are
// non-decreasing in enqueue order, waiting for the head never delays a
// message behind a later one.
func (s *subscriber) drain() {
	for {
		select {
		case <-s.done:
			return
		case <-s.wake:
		}
		for {
			s.mu.Lock()
			batch := s.queue
			if len(batch) == 0 {
				s.mu.Unlock()
				break
			}
			// Hand the spare array over to the queue and drop our
			// reference: the queue now owns it exclusively, so the batch
			// being flushed can never alias the array publishers append
			// to. The flushed batch's array becomes the next spare.
			s.queue = s.spare[:0]
			s.spare = nil
			s.mu.Unlock()
			if !s.flush(batch) {
				return
			}
			s.spare = batch[:0]
		}
	}
}

// flush delivers one swapped-out run of pending messages, splitting it at
// due boundaries; it reports false when the subscription was cancelled.
func (s *subscriber) flush(batch []timedMsg) bool {
	for len(batch) > 0 {
		var now float64
		if s.clock != nil {
			if d := batch[0].due - s.clock.Now(); d > 0 {
				s.clock.Sleep(d)
			}
			now = s.clock.Now()
		}
		cut := 1
		for cut < len(batch) && batch[cut].due <= now {
			cut++
		}
		buf := s.bufs[s.cur][:0]
		for i := 0; i < cut; i++ {
			buf = append(buf, batch[i].msg)
		}
		s.bufs[s.cur] = buf
		select {
		case s.out <- buf:
			s.cur = 1 - s.cur
			s.metBatches.Inc()
			s.metBatchSize.Observe(float64(len(buf)))
			s.metPending.Add(-float64(len(buf)))
		case <-s.done:
			return false
		}
		batch = batch[cut:]
	}
	return true
}

// flatten adapts the batch hand-off to the per-message C feed.
func (s *subscriber) flatten() {
	for {
		select {
		case <-s.done:
			return
		case batch := <-s.out:
			for _, m := range batch {
				select {
				case s.flat <- m:
				case <-s.done:
					return
				}
			}
		}
	}
}

// Subscription is one consumer's feed. Consume either per message (C) or
// in batches (Batches), not both.
type Subscription struct {
	sub    *subscriber
	cancel func()
	once   sync.Once
}

// C returns the per-message delivery channel. It is never closed;
// consumers should select against their own shutdown signal.
func (s *Subscription) C() <-chan Message {
	s.sub.flatOnce.Do(func() {
		s.sub.flat = make(chan Message, subscriberBuffer)
		go s.sub.flatten()
	})
	return s.sub.flat
}

// Batches returns the batch delivery channel: each receive yields every
// pending message whose modelled delivery instant has passed, in
// publication order. The delivered slice is owned by the broker and
// recycled — the consumer must finish with it (or copy it) before its
// next receive from the channel, and must not retain it. The channel is
// never closed; consumers select against their own shutdown signal.
func (s *Subscription) Batches() <-chan []Message { return s.sub.out }

// Next blocks until at least one message is due and returns every due
// pending message as one batch, in delivery order. It is the consumer
// call for virtual-clock brokers, where there is no drain goroutine:
// the caller must be a schedule participant, and the wait for the head
// message's due instant runs on the discrete-event scheduler (so model
// time advances exactly to it). On a real-clock broker Next also works
// — it waits on the subscriber queue directly — but C/Batches and Next
// must not be mixed on one subscription. The returned slice is owned by
// the caller.
func (s *Subscription) Next(ctx context.Context) ([]Message, error) {
	sub := s.sub
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		select {
		case <-sub.done:
			return nil, ErrCancelled
		default:
		}
		var now float64
		if sub.clock != nil {
			now = sub.clock.Now()
		}
		sub.mu.Lock()
		if len(sub.queue) > 0 {
			head := sub.queue[0].due
			if head <= now || sub.clock == nil {
				batch := sub.takeDueLocked(now)
				sub.mu.Unlock()
				return batch, nil
			}
			sub.mu.Unlock()
			if err := sub.clock.SleepCtx(ctx, head-now); err != nil {
				return nil, err
			}
			continue
		}
		sub.mu.Unlock()
		if sub.vcond != nil {
			if err := sub.vcond.Wait(ctx); err != nil {
				return nil, err
			}
			continue
		}
		// Real clock: wait for the enqueue signal.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-sub.done:
			return nil, ErrCancelled
		case <-sub.wake:
		}
	}
}

// TryNext returns every pending message already due as one batch, or
// nil when nothing is due yet. It never blocks and never advances model
// time. The returned slice is owned by the caller.
func (s *Subscription) TryNext() []Message {
	sub := s.sub
	var now float64
	if sub.clock != nil {
		now = sub.clock.Now()
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if len(sub.queue) == 0 || (sub.clock != nil && sub.queue[0].due > now) {
		return nil
	}
	return sub.takeDueLocked(now)
}

// takeDueLocked removes and returns the due prefix of the pending
// queue. Caller holds sub.mu and has checked the head is due.
func (sub *subscriber) takeDueLocked(now float64) []Message {
	cut := 1
	if sub.clock != nil {
		for cut < len(sub.queue) && sub.queue[cut].due <= now {
			cut++
		}
	} else {
		cut = len(sub.queue)
	}
	batch := make([]Message, cut)
	for i := 0; i < cut; i++ {
		batch[i] = sub.queue[i].msg
	}
	n := copy(sub.queue, sub.queue[cut:])
	for i := n; i < len(sub.queue); i++ {
		sub.queue[i] = timedMsg{}
	}
	sub.queue = sub.queue[:n]
	sub.metBatches.Inc()
	sub.metBatchSize.Observe(float64(cut))
	sub.metPending.Add(-float64(cut))
	return batch
}

// Cancel detaches the consumer; pending deliveries are dropped, which is
// how a crashed agent loses its in-flight messages on a queue broker.
func (s *Subscription) Cancel() { s.once.Do(s.cancel) }

func (c *common) Subscribe(topic string) (*Subscription, error) {
	sub := &subscriber{
		id:    c.nextID.Add(1),
		clock: c.clock,
		wake:  make(chan struct{}, 1),
		out:   make(chan []Message),
		done:  make(chan struct{}),
	}
	if c.clock.Virtual() {
		sub.vcond = c.clock.NewCond()
	}
	sh := c.shardFor(topic)
	// The closed-check must stay atomic with registration (a concurrent
	// Close between them would hand out a subscription on a closed
	// broker), so the broker read-lock is held across both; Close's
	// write-lock then serialises against in-flight subscribes.
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil, ErrClosed
	}
	sh.mu.Lock()
	sh.subs[topic] = append(sh.subs[topic], sub)
	sub.metDeliveries, sub.metBatches, sub.metPending = sh.metDeliveries, sh.metBatches, sh.metPending
	sub.metBatchSize = c.metBatchSize.Load()
	sh.mu.Unlock()
	c.mu.RUnlock()
	if sub.vcond == nil {
		go sub.drain()
	}
	return &Subscription{
		sub: sub,
		cancel: func() {
			close(sub.done)
			c.removeSub(sh, topic, sub.id)
		},
	}, nil
}

// pushSubIDs numbers push-fed subscriptions; they never register on a
// broker shard, so the counter only needs to be unique among themselves.
var pushSubIDs atomic.Int64

// NewPushSubscription builds a Subscription fed by the returned push
// function instead of a local broker shard — the consumer half of a
// remote transport. Each pushed message is due immediately (its modelled
// latency already elapsed on the serving broker before the bytes hit
// the wire); the batch/drain machinery behind Batches and C behaves
// exactly as for a broker-fed subscription, including the recycled-
// batch ownership contract. onCancel, when non-nil, runs once when the
// subscription is cancelled (e.g. to tell the remote side to stop
// forwarding). Pushing after cancellation is safe and delivers nothing.
func NewPushSubscription(onCancel func()) (*Subscription, func(msgs []Message)) {
	sub := &subscriber{
		id:   pushSubIDs.Add(1),
		wake: make(chan struct{}, 1),
		out:  make(chan []Message),
		done: make(chan struct{}),
	}
	go sub.drain()
	push := func(msgs []Message) {
		sub.mu.Lock()
		for i := range msgs {
			// due 0: already elapsed (the subscriber has no clock; flush
			// treats every message as due).
			sub.queue = append(sub.queue, timedMsg{msg: msgs[i]})
		}
		sub.mu.Unlock()
		select {
		case sub.wake <- struct{}{}:
		default:
		}
	}
	return &Subscription{
		sub: sub,
		cancel: func() {
			close(sub.done)
			if onCancel != nil {
				onCancel()
			}
		},
	}, push
}

func (c *common) removeSub(sh *shard, topic string, id int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	list := sh.subs[topic]
	for i, s := range list {
		if s.id == id {
			sh.subs[topic] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// deliver fans msg out to the topic's current subscribers on its shard.
// The message first queues for the shard (occupying it for svcTime — the
// per-partition throughput bottleneck), then propagates for latency. The
// resulting due instant is monotonically non-decreasing across publishes
// on one shard, so per-subscriber FIFO order is preserved. Enqueueing
// never blocks: backpressure moved from the publisher to the consumer's
// batch hand-off.
func (c *common) deliver(msg Message) {
	c.metPublished.Load().Inc()
	sh := c.shardFor(msg.Topic)
	svc := math.Float64frombits(c.svcTime.Load())
	now := c.clock.Now()
	sh.qmu.Lock()
	start := now
	if sh.nextFree > now {
		start = sh.nextFree
	}
	sh.nextFree = start + svc
	due := sh.nextFree + c.latency
	sh.perTopic[msg.Topic]++
	sh.qmu.Unlock()

	tm := timedMsg{msg: msg, due: due}
	ch := c.chaos.Load()
	sh.mu.RLock()
	for _, sub := range sh.subs[msg.Topic] {
		if ch == nil {
			sub.enqueue(tm)
			continue
		}
		c.chaosEnqueue(ch, sub, tm, 0)
	}
	sh.mu.RUnlock()
}

// SetServiceTime overrides the per-message broker occupancy (model
// seconds). Call before any traffic flows; 0 disables queueing.
func (c *common) SetServiceTime(s float64) {
	c.svcTime.Store(math.Float64bits(s))
}

// Published returns the total number of messages accepted.
func (c *common) Published() int64 { return c.published.Load() }

// PublishedPrefix sums the per-topic publish counters over topics with
// the given prefix, across all shards. An empty prefix matches everything
// still counted (purged topics no longer contribute).
func (c *common) PublishedPrefix(prefix string) int64 {
	var n int64
	for _, sh := range c.shards {
		sh.qmu.Lock()
		for topic, count := range sh.perTopic {
			if strings.HasPrefix(topic, prefix) {
				n += count
			}
		}
		sh.qmu.Unlock()
	}
	return n
}

// shardTopics collects the topics under prefix holding subscriber or
// counter state on one shard.
func (c *common) shardTopics(sh *shard, prefix string, seen map[string]bool) {
	sh.mu.RLock()
	for topic, list := range sh.subs {
		if len(list) > 0 && strings.HasPrefix(topic, prefix) {
			seen[topic] = true
		}
	}
	sh.mu.RUnlock()
	sh.qmu.Lock()
	for topic := range sh.perTopic {
		if strings.HasPrefix(topic, prefix) {
			seen[topic] = true
		}
	}
	sh.qmu.Unlock()
}

// Topics lists topics under prefix that hold subscriber or counter state
// on any shard.
func (c *common) Topics(prefix string) []string {
	seen := map[string]bool{}
	for _, sh := range c.shards {
		c.shardTopics(sh, prefix, seen)
	}
	return sortedKeys(seen)
}

// ShardTopics lists topics under prefix holding state on the given shard.
func (c *common) ShardTopics(shard int, prefix string) []string {
	seen := map[string]bool{}
	c.shardTopics(c.shards[shard], prefix, seen)
	return sortedKeys(seen)
}

func sortedKeys(seen map[string]bool) []string {
	out := make([]string, 0, len(seen))
	for topic := range seen {
		out = append(out, topic)
	}
	sort.Strings(out)
	return out
}

// PurgeTopics drops subscriber registrations and counters for topics
// with the given prefix on every shard. Subscriber done-channels are left
// untouched — closing them is the owning Subscription's job — so a purged
// consumer simply stops receiving.
func (c *common) PurgeTopics(prefix string) int {
	return len(c.purge(prefix))
}

// purge removes the common state under prefix across shards and returns
// the set of topics that held any, so broker variants can union in their
// own state (the log broker adds its retained logs) without re-scanning.
func (c *common) purge(prefix string) map[string]bool {
	purged := map[string]bool{}
	for _, sh := range c.shards {
		sh.mu.Lock()
		for topic, list := range sh.subs {
			if strings.HasPrefix(topic, prefix) {
				if len(list) > 0 {
					purged[topic] = true
				}
				delete(sh.subs, topic)
			}
		}
		sh.mu.Unlock()
		sh.qmu.Lock()
		for topic := range sh.perTopic {
			if strings.HasPrefix(topic, prefix) {
				purged[topic] = true
				delete(sh.perTopic, topic)
			}
		}
		sh.qmu.Unlock()
	}
	return purged
}

// Close shuts the broker down; subsequent publishes and subscriptions
// fail with ErrClosed.
func (c *common) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *common) checkOpen() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrClosed
	}
	return nil
}

// QueueBroker is the ActiveMQ-like broker: fast, volatile.
type QueueBroker struct {
	*common
}

// DefaultQueueLatency is the modelled per-message latency of the queue
// broker, in model seconds. Model constants are calibrated so that, at
// the default clock scale (1 ms of real time per model second), every
// modelled sleep sits above the host's ~1.2 ms timer granularity; the
// absolute values are arbitrary, the ratios are what the experiments
// reproduce.
const DefaultQueueLatency = 2.0

// DefaultQueueServiceTime is the broker occupancy per message for the
// queue broker: the throughput term behind Fig. 12(b)'s fully-connected
// slowdown (hundreds of messages per layer share one middleware
// partition).
const DefaultQueueServiceTime = 0.01

// NewQueueBroker builds a queue broker on the given clock with
// DefaultShards shards. latency <= 0 takes DefaultQueueLatency.
func NewQueueBroker(clock *cluster.Clock, latency float64) *QueueBroker {
	return NewQueueBrokerSharded(clock, latency, DefaultShards)
}

// NewQueueBrokerSharded builds a queue broker with an explicit shard
// count (<= 0 takes DefaultShards; 1 reproduces the unsharded broker).
func NewQueueBrokerSharded(clock *cluster.Clock, latency float64, shards int) *QueueBroker {
	if latency <= 0 {
		latency = DefaultQueueLatency
	}
	return &QueueBroker{common: newCommon(clock, latency, DefaultQueueServiceTime, shards)}
}

// Publish delivers to current subscribers only; nothing is retained.
func (b *QueueBroker) Publish(topic, payload string) error {
	if err := b.checkOpen(); err != nil {
		return err
	}
	b.published.Add(1)
	b.deliver(Message{Topic: topic, Payload: payload, Offset: -1})
	return nil
}

// PublishAtoms delivers a structural payload to current subscribers only.
func (b *QueueBroker) PublishAtoms(topic string, atoms []hocl.Atom) error {
	return b.PublishAtomsCtx(context.Background(), topic, atoms)
}

// PublishAtomsCtx is PublishAtoms; the queue broker never blocks, so ctx
// is unused.
func (b *QueueBroker) PublishAtomsCtx(_ context.Context, topic string, atoms []hocl.Atom) error {
	if err := b.checkOpen(); err != nil {
		return err
	}
	b.published.Add(1)
	b.deliver(Message{Topic: topic, Atoms: atoms, Offset: -1})
	return nil
}

// logShard is one shard's slice of the retained logs, so log appends
// contend only within a shard, like Kafka partitions.
type logShard struct {
	mu   sync.RWMutex
	logs map[string][]Message
}

// LogBroker is the Kafka-like broker: append-only persisted topics with
// replay, at a higher per-message cost. Logs are sharded alongside the
// delivery state: a topic's log lives on the same shard its deliveries
// route through.
type LogBroker struct {
	*common
	logShards []*logShard

	// observer, when set, sees every accepted publish — the journal's
	// inbox write-through point (DESIGN.md "Fault model & chaos
	// harness").
	observer atomic.Pointer[func(context.Context, Message)]
}

// DefaultLogLatency is the modelled per-message latency of the log
// broker: 4× the queue broker, matching the paper's Fig. 14 observation.
const DefaultLogLatency = 4 * DefaultQueueLatency // 8.0

// DefaultLogServiceTime is the broker occupancy per message of the log
// broker: persistence costs throughput as well; the 4x per-message ratio
// carries over (Fig. 14).
const DefaultLogServiceTime = 4 * DefaultQueueServiceTime // 0.04

// NewLogBroker builds a log broker on the given clock with DefaultShards
// shards. latency <= 0 takes DefaultLogLatency.
func NewLogBroker(clock *cluster.Clock, latency float64) *LogBroker {
	return NewLogBrokerSharded(clock, latency, DefaultShards)
}

// NewLogBrokerSharded builds a log broker with an explicit shard count
// (<= 0 takes DefaultShards; 1 reproduces the unsharded broker).
func NewLogBrokerSharded(clock *cluster.Clock, latency float64, shards int) *LogBroker {
	if latency <= 0 {
		latency = DefaultLogLatency
	}
	c := newCommon(clock, latency, DefaultLogServiceTime, shards)
	ls := make([]*logShard, len(c.shards))
	for i := range ls {
		ls[i] = &logShard{logs: map[string][]Message{}}
	}
	return &LogBroker{common: c, logShards: ls}
}

// Publish appends to the topic log, then delivers to subscribers.
func (b *LogBroker) Publish(topic, payload string) error {
	return b.append(context.Background(), Message{Topic: topic, Payload: payload})
}

// PublishAtoms appends a structural payload to the topic log, then
// delivers it. The log retains the atoms by reference: replay hands the
// same frozen molecules back, so recovery pays no re-parse either.
func (b *LogBroker) PublishAtoms(topic string, atoms []hocl.Atom) error {
	return b.append(context.Background(), Message{Topic: topic, Atoms: atoms})
}

// PublishAtomsCtx is PublishAtoms with the publisher's ctx handed to the
// publish observer.
func (b *LogBroker) PublishAtomsCtx(ctx context.Context, topic string, atoms []hocl.Atom) error {
	return b.append(ctx, Message{Topic: topic, Atoms: atoms})
}

func (b *LogBroker) append(ctx context.Context, msg Message) error {
	if err := b.checkOpen(); err != nil {
		return err
	}
	b.published.Add(1)
	ls := b.logShards[b.shardIndex(msg.Topic)]
	ls.mu.Lock()
	msg.Offset = len(ls.logs[msg.Topic])
	ls.logs[msg.Topic] = append(ls.logs[msg.Topic], msg)
	ls.mu.Unlock()
	// The observer runs outside the log-shard lock (it may take locks of
	// its own, e.g. the journal writer's) and before delivery, so a
	// journaled message is durable before any consumer can act on it.
	if obs := b.observer.Load(); obs != nil {
		(*obs)(ctx, msg)
	}
	b.deliver(msg)
	return nil
}

// SetPublishObserver registers fn, invoked synchronously for every
// accepted publish with the publisher's ctx, after the message is
// appended to the log and before it is delivered. One observer at a
// time; install it before traffic flows. The Manager uses it to journal
// agent inboxes write-through.
func (b *LogBroker) SetPublishObserver(fn func(context.Context, Message)) {
	if fn == nil {
		b.observer.Store(nil)
		return
	}
	b.observer.Store(&fn)
}

// RestoreLog replaces a topic's retained log with msgs, renumbering
// offsets. Crash recovery uses it to re-seed a fresh process's broker
// with the journaled inbox history, so an agent that crashes again
// after resume still replays its pre-crash messages. Nothing is
// delivered; only the replay history changes.
func (b *LogBroker) RestoreLog(topic string, msgs []Message) {
	log := make([]Message, len(msgs))
	for i, m := range msgs {
		m.Topic = topic
		m.Offset = i
		log[i] = m
	}
	ls := b.logShards[b.shardIndex(topic)]
	ls.mu.Lock()
	ls.logs[topic] = log
	ls.mu.Unlock()
}

// Topics lists topics under prefix holding subscriber, counter or log
// state on any shard.
func (b *LogBroker) Topics(prefix string) []string {
	seen := map[string]bool{}
	for i, sh := range b.shards {
		b.shardTopics(sh, prefix, seen)
		b.logTopics(i, prefix, seen)
	}
	return sortedKeys(seen)
}

// ShardTopics lists topics under prefix holding subscriber, counter or
// log state on the given shard.
func (b *LogBroker) ShardTopics(shard int, prefix string) []string {
	seen := map[string]bool{}
	b.shardTopics(b.shards[shard], prefix, seen)
	b.logTopics(shard, prefix, seen)
	return sortedKeys(seen)
}

func (b *LogBroker) logTopics(shard int, prefix string, seen map[string]bool) {
	ls := b.logShards[shard]
	ls.mu.RLock()
	for topic := range ls.logs {
		if strings.HasPrefix(topic, prefix) {
			seen[topic] = true
		}
	}
	ls.mu.RUnlock()
}

// PurgeTopics additionally drops the retained logs under prefix — the
// piece of per-workflow state that would otherwise grow without bound in
// a long-lived log broker (replay is only meaningful within a session).
func (b *LogBroker) PurgeTopics(prefix string) int {
	purged := b.common.purge(prefix)
	for _, ls := range b.logShards {
		ls.mu.Lock()
		for topic := range ls.logs {
			if strings.HasPrefix(topic, prefix) {
				purged[topic] = true
				delete(ls.logs, topic)
			}
		}
		ls.mu.Unlock()
	}
	return len(purged)
}

// Log returns a copy of the topic's full history. Atom slices are copied
// per message so a caller cannot swap molecules inside the log; the atoms
// themselves are shared (they are frozen by the publish contract).
func (b *LogBroker) Log(topic string) []Message {
	ls := b.logShards[b.shardIndex(topic)]
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	out := append([]Message(nil), ls.logs[topic]...)
	for i := range out {
		if out[i].Atoms != nil {
			out[i].Atoms = append([]hocl.Atom(nil), out[i].Atoms...)
		}
	}
	return out
}

var (
	_ Broker     = (*QueueBroker)(nil)
	_ Replayable = (*LogBroker)(nil)
)

// Kind names a broker implementation in configs and CLIs.
type Kind string

// The broker kinds of the paper's deployment (§IV-A).
const (
	KindQueue Kind = "activemq"
	KindLog   Kind = "kafka"
)

// NewBroker builds a broker of the given kind with its default latency
// and DefaultShards shards.
func NewBroker(kind Kind, clock *cluster.Clock) (Broker, error) {
	return NewBrokerSharded(kind, clock, DefaultShards)
}

// NewBrokerSharded builds a broker of the given kind with its default
// latency and an explicit shard count (<= 0 takes DefaultShards).
func NewBrokerSharded(kind Kind, clock *cluster.Clock, shards int) (Broker, error) {
	switch kind {
	case KindQueue:
		return NewQueueBrokerSharded(clock, 0, shards), nil
	case KindLog:
		return NewLogBrokerSharded(clock, 0, shards), nil
	default:
		return nil, fmt.Errorf("mq: unknown broker kind %q (want %q or %q)", kind, KindQueue, KindLog)
	}
}
