package sim

import (
	"context"
	"testing"
	"time"
)

// unservicedDeadline is a context whose done channel stays open whatever
// its deadline, as when context.WithTimeout's runtime timer has not been
// serviced yet; its Err reads nil.
type unservicedDeadline struct {
	context.Context
	at time.Time
}

func (c unservicedDeadline) Done() <-chan struct{}       { return make(chan struct{}) }
func (c unservicedDeadline) Deadline() (time.Time, bool) { return c.at, true }

// TestCtxErr: an uncancellable or live context reads nil, a done context
// its own error, and a deadline the clock has passed DeadlineExceeded even
// while the done channel is still open.
func TestCtxErr(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	live, stop := context.WithTimeout(context.Background(), time.Hour)
	defer stop()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"background", context.Background(), nil},
		{"live timeout", live, nil},
		{"cancelled", cancelled, context.Canceled},
		{"deadline passed, timer unserviced", unservicedDeadline{context.Background(), time.Now().Add(-time.Millisecond)}, context.DeadlineExceeded},
		{"deadline ahead", unservicedDeadline{context.Background(), time.Now().Add(time.Hour)}, nil},
	} {
		if got := CtxErr(tc.ctx); got != tc.want {
			t.Errorf("%s: CtxErr = %v, want %v", tc.name, got, tc.want)
		}
	}
}
