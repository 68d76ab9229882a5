package sim

import (
	"context"
	"time"
)

// CtxErr is the one cancellation poll of the simulation: the round loop
// calls it before every pass over its streams, and the experiment runner
// at its phase boundaries and per stream during construction. The
// simulator has no preemption points — a cell runs on its caller's
// goroutine until it finishes — so bounded cancellation latency comes from
// these polls alone. A pass prices thousands of events, so a done-channel
// check and a clock read per pass cost nothing measurable.
//
// It returns nil at once for a context that can never be cancelled
// (context.Background and friends have no done channel), ctx.Err() once
// the context is done, and context.DeadlineExceeded once the clock has
// passed ctx.Deadline(). The clock check matters: context.WithTimeout fires
// through a runtime timer, and a tight simulation loop can keep that timer
// from being serviced until after the cell would have finished, so an
// expired budget must fail the cell even while ctx.Err() still reads nil.
func CtxErr(ctx context.Context) error {
	done := ctx.Done()
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return ctx.Err()
	default:
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}
