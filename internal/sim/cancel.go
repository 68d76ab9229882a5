package sim

import (
	"context"
	"time"
)

// Checkpoint is a cooperative-cancellation guard for simulation loops. The
// simulator has no preemption points — a cell runs on its caller's
// goroutine until it finishes — so bounded cancellation latency comes from
// the loops themselves polling a Checkpoint between rounds.
//
// Every Hit polls: the loops hit once per pass over their streams, and a
// pass prices thousands of events, so a done-channel check and a clock read
// per pass cost nothing measurable, while skipping polls would let a phase
// shorter than the skip run to its end under an expired deadline.
//
// Deadlines are checked against the clock, not just the context's done
// channel: context.WithTimeout fires through a runtime timer, and a tight
// simulation loop can keep that timer from being serviced until after the
// cell would have finished. Comparing time.Now against ctx.Deadline makes
// an expired budget fire at the next poll regardless of timer delivery.
//
// A nil *Checkpoint is valid and never fires; NewCheckpoint returns nil for
// contexts that can never be cancelled (context.Background and friends), so
// an uncancellable run pays only a nil check per poll. A Checkpoint is
// owned by one goroutine; it is not safe for concurrent use.
type Checkpoint struct {
	ctx      context.Context
	done     <-chan struct{}
	deadline time.Time
	hasDL    bool
	fired    bool
}

// NewCheckpoint returns a guard polling ctx, or nil when ctx can never be
// cancelled.
func NewCheckpoint(ctx context.Context) *Checkpoint {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	cp := &Checkpoint{ctx: ctx, done: done}
	cp.deadline, cp.hasDL = ctx.Deadline()
	return cp
}

// Hit reports whether the context has been cancelled or its deadline has
// passed. Once it has fired it keeps returning true without polling again.
func (c *Checkpoint) Hit() bool {
	if c == nil {
		return false
	}
	if c.fired {
		return true
	}
	select {
	case <-c.done:
		c.fired = true
		return true
	default:
	}
	if c.hasDL && !time.Now().Before(c.deadline) {
		c.fired = true
		return true
	}
	return false
}

// Err returns the cancellation cause after Hit has fired, nil before. When
// the deadline passed before the context's own timer was serviced, the
// context still reports no error; the guard reports DeadlineExceeded itself
// so an expired budget is never mistaken for success.
func (c *Checkpoint) Err() error {
	if c == nil || !c.fired {
		return nil
	}
	if err := c.ctx.Err(); err != nil {
		return err
	}
	return context.DeadlineExceeded
}
