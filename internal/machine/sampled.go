package machine

import "context"

// RunSampled's SMARTS-style round schedule (Wunderlich et al., ISCA 2003):
// each period of samplePeriod transaction rounds begins with sampleDetail
// rounds that are generated, priced, and measured, and ends with
// sampleWarm rounds that are generated and priced but not measured — they
// re-warm the caches, TLBs and allocator state immediately before the next
// period's detail rounds. Every round in between is skipped outright: 2
// executed rounds per 16, an 8x round-count reduction.
//
// Skipping a round means the transactions it would have run never happen —
// neither generated nor priced. This is transaction-population sampling, not
// trace fast-forwarding: event generation is a quarter of the simulator's
// runtime, so a mode that still generated every skipped transaction could
// never reach the speedups sampling exists for. Per-transaction statistics
// stay unbiased because measured counters and the transaction count come
// from exactly the same detail rounds; the cost is that long-horizon state
// drift (e.g. slow heap growth across thousands of transactions) is sampled
// at period granularity rather than continuously.
const (
	samplePeriod = 16
	sampleDetail = 1
	sampleWarm   = 1
)

// RunSampled executes the measurement phase of a run under the sampling
// schedule: detail rounds are priced and measured exactly as RunContext's
// measured rounds are, warming rounds are priced unmeasured, and skipped
// rounds cost nothing at all. Both run through the same round body, so
// cancellation, transaction counting and sampling behave as in RunContext.
// measure counts scheduled rounds — the full-fidelity equivalent — so a
// caller switching fidelity modes changes only how many of those rounds
// execute, not the schedule's span. Warmup belongs to the caller (run
// RunContext(ctx, drivers, warmup, 0) first), matching how the experiment
// runner phases its cells.
//
// The machine's counters afterwards describe only the detail rounds, and
// Solve's per-transaction quantities are unbiased for the same reason; its
// absolute Throughput and WallCycles describe the sampled transaction
// population, not the full schedule.
func (m *Machine) RunSampled(ctx context.Context, drivers []Driver, measure int) error {
	for r := 0; r < measure; r++ {
		q := r % samplePeriod
		detail := q < sampleDetail
		if !detail && q < samplePeriod-sampleWarm {
			continue // skipped: no generation, no pricing
		}
		if err := m.round(ctx, drivers, detail); err != nil {
			return err
		}
	}
	return nil
}
