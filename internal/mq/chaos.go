package mq

import (
	"context"

	"ginflow/internal/failure"
)

// Broker-side chaos: the delivery fan-out draws one fault per
// (message, subscriber) pair from the installed schedule. Faults act on
// delivery attempts only — a LogBroker's retained log always holds
// exactly one copy of each publish, so replay and recovery see the true
// history while live consumers experience drops, duplicates, delays and
// reorders.

// ChaosHost is implemented by brokers that accept a fault-injection
// schedule perturbing delivery. Install the schedule before traffic
// flows; nil uninstalls.
type ChaosHost interface {
	SetChaos(*failure.Schedule)
}

// ObserverHost is implemented by brokers that can report every accepted
// publish to a synchronous observer (the journal's inbox write-through
// point).
type ObserverHost interface {
	SetPublishObserver(func(context.Context, Message))
}

// LogRestorer is implemented by brokers whose replay logs can be
// re-seeded from journaled history during crash recovery.
type LogRestorer interface {
	RestoreLog(topic string, msgs []Message)
}

var (
	_ ChaosHost    = (*QueueBroker)(nil)
	_ ChaosHost    = (*LogBroker)(nil)
	_ ObserverHost = (*LogBroker)(nil)
	_ LogRestorer  = (*LogBroker)(nil)
)

// maxRedeliveries bounds how often chaos may drop one (message,
// subscriber) delivery before the modelled middleware's redelivery is
// forced through. A drop is therefore a delay plus a reorder, never a
// loss: transport stays at-least-once, the floor the agents' sequence
// numbers turn into exactly-once.
const maxRedeliveries = 2

// SetChaos installs (or, with nil, removes) the fault schedule
// perturbing this broker's deliveries.
func (c *common) SetChaos(s *failure.Schedule) {
	c.chaos.Store(s)
}

// chaosEnqueue routes one delivery through the fault schedule:
//
//   - drop: suppress this attempt and redeliver after the configured
//     lag from a timer goroutine, so the retried message lands behind
//     traffic published meanwhile (genuine reordering), bounded by
//     maxRedeliveries;
//   - duplicate: deliver now and once more after the redelivery lag;
//   - delay: push the due instant out by the drawn amount;
//   - reorder: deliver, then swap with the queue predecessor.
func (c *common) chaosEnqueue(ch *failure.Schedule, sub *subscriber, tm timedMsg, attempt int) {
	f := ch.Draw(failure.BoundaryMessage)
	lag := ch.Config().RedeliverDelay // model seconds
	switch f.Kind {
	case failure.FaultDrop:
		if attempt < maxRedeliveries {
			// The redelivery timer runs on the broker clock: a plain
			// goroutine sleeping scaled real time in real mode, a schedule
			// participant in virtual mode — so chaos lags are drawn in
			// virtual time and stay deterministic.
			c.clock.GoCtx(context.Background(), func(ctx context.Context) {
				_ = c.clock.SleepCtx(ctx, lag)
				c.chaosEnqueue(ch, sub, timedMsg{msg: tm.msg, due: c.clock.Now()}, attempt+1)
			})
			return
		}
		// Redelivery budget spent: the middleware pushes it through.
	case failure.FaultDuplicate:
		c.clock.GoCtx(context.Background(), func(ctx context.Context) {
			_ = c.clock.SleepCtx(ctx, lag)
			sub.enqueue(timedMsg{msg: tm.msg, due: c.clock.Now()})
		})
	case failure.FaultDelay:
		tm.due += f.Delay
	case failure.FaultReorder:
		sub.enqueue(tm)
		sub.swapTail()
		return
	}
	sub.enqueue(tm)
}
