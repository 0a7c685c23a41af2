package dist

import (
	"errors"
	"time"

	"nashlb/internal/rng"
)

// ErrCrashed reports that an injected crash has taken the node down: every
// Send and Recv on the crashed transport fails until Revive. The ring node
// exits with this error, which the Supervisor recognizes as a crash (as
// opposed to a protocol failure) when deciding whether to restart.
var ErrCrashed = errors.New("dist: node crashed (injected fault)")

// errInjectedCut is the failure a Cut send reports after delivering.
var errInjectedCut = errors.New("dist: injected link fault")

// ChaosConfig parameterizes a Chaos transport. All probabilities are per
// message, in [0, 1]; every coin flip is drawn from R, so a run with the
// same seed replays the exact same fault schedule.
type ChaosConfig struct {
	// Drop is the probability a sent message is silently lost (the sender
	// still observes success, as with a real lossy link).
	Drop float64
	// Dup is the probability a sent message is transmitted twice.
	Dup float64
	// Cut is the probability a send that went out reports failure anyway,
	// so the sender retries a message already delivered.
	Cut float64
	// DelayProb is the probability a message is delivered asynchronously
	// after a random delay in (0, MaxDelay) instead of immediately.
	DelayProb float64
	// MaxDelay bounds injected delays (1ms when zero).
	MaxDelay time.Duration
	// Reorder is the probability a message is held back and released only
	// after the next send, swapping their order on the wire.
	Reorder float64
	// CrashAfterRecvs schedules a crash: after this many received messages
	// the transport fails with ErrCrashed, and the message that triggered
	// the crash is lost with it (the token dies with the node). 0 disables.
	CrashAfterRecvs int
	// R drives every fault coin flip; required when any probability is
	// nonzero.
	R *rng.Stream
}

// Chaos wraps a transport with seeded fault injection: drop, duplicate,
// a delivered send reported as failed, delay, reorder, and scheduled crash —
// the chaos harness for the ring protocol's recovery paths.
//
// Like the transports it wraps, a Chaos serves a single ring node and is
// not safe for concurrent use by multiple goroutines; the asynchronous
// delayed deliveries it spawns only touch the inner transport's Send,
// which every ring transport already serializes.
type Chaos struct {
	inner   Transport
	cfg     ChaosConfig
	recvs   int
	crashed bool
	held    *Message
}

// NewChaos returns a fault-injecting view of inner.
func NewChaos(inner Transport, cfg ChaosConfig) *Chaos {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = time.Millisecond
	}
	return &Chaos{inner: inner, cfg: cfg}
}

func (c *Chaos) flip(p float64) bool {
	return p > 0 && c.cfg.R != nil && c.cfg.R.Float64() < p
}

// Send implements Transport with the configured faults applied.
func (c *Chaos) Send(m Message) error {
	if c.crashed {
		return ErrCrashed
	}
	if c.flip(c.cfg.Drop) {
		return nil // lost on the wire; the sender believes it went out
	}
	if c.held == nil && c.flip(c.cfg.Reorder) {
		held := m
		c.held = &held // released after the next send
		return nil
	}
	if err := c.deliver(m); err != nil {
		return err
	}
	if c.flip(c.cfg.Dup) {
		if err := c.deliver(m); err != nil {
			return err
		}
	}
	if c.held != nil {
		held := *c.held
		c.held = nil
		if err := c.deliver(held); err != nil {
			return err
		}
	}
	if c.flip(c.cfg.Cut) {
		return errInjectedCut
	}
	return nil
}

// deliver forwards one message, possibly on a delayed background timer.
func (c *Chaos) deliver(m Message) error {
	if c.flip(c.cfg.DelayProb) {
		d := time.Duration(c.cfg.R.Float64() * float64(c.cfg.MaxDelay))
		inner := c.inner
		// Late delivery: a send error at fire time is indistinguishable
		// from a loss, which the protocol's recovery already covers.
		time.AfterFunc(d, func() { _ = inner.Send(m) })
		return nil
	}
	return c.inner.Send(m)
}

// Recv implements Transport, firing the scheduled crash when due.
func (c *Chaos) Recv() (Message, error) {
	if c.crashed {
		return Message{}, ErrCrashed
	}
	m, err := c.inner.Recv()
	if err != nil {
		return m, err
	}
	c.recvs++
	if c.cfg.CrashAfterRecvs > 0 && c.recvs >= c.cfg.CrashAfterRecvs {
		c.crashed = true
		return Message{}, ErrCrashed
	}
	return m, nil
}

// Revive clears a fired crash, modelling the node process being restarted;
// the crash schedule does not re-arm.
func (c *Chaos) Revive() {
	c.crashed = false
	c.cfg.CrashAfterRecvs = 0
}

// Crashed reports whether the scheduled crash has fired.
func (c *Chaos) Crashed() bool { return c.crashed }

// Close implements Transport.
func (c *Chaos) Close() error { return c.inner.Close() }
