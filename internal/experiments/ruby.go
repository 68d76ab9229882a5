package experiments

import (
	"math"

	"webmm/internal/report"
	"webmm/internal/sim"
)

// The paper's Ruby on Rails study (§4.4) restarts every runtime process
// once per 500 transactions for all allocators, "because it was beneficial
// for all of the allocators".
const rubyRestartEvery = 500

// rubyRestart returns the restart period adjusted to the configured scale:
// the paper's 500-transaction lifetime is defined against full-size
// transactions, so a scaled-down run shortens the lifetime proportionally
// to keep heap aging per process constant. A negative period comes back
// unchanged for Cell.Validate to reject, and a huge one saturates instead
// of overflowing, so it means no restart within the run.
func (c Config) rubyRestart(period int) int {
	if period <= 0 {
		return period
	}
	return max(min(period, math.MaxInt/8)*8/c.Scale, 2)
}

// RubyRestartPeriod converts a restart period expressed in the paper's
// full-scale transactions into this runner's scaled Cell.RestartEvery value
// (0 stays 0, meaning no restarts). The public Study API accepts paper-scale
// periods and converts through here.
func (r *Runner) RubyRestartPeriod(period int) int { return r.Cfg.rubyRestart(period) }

// ---------------------------------------------------------------------------
// Figure 10: Rails throughput under glibc, Hoard, TCmalloc and DDmalloc on
// 8 Xeon cores.

// Fig10Entry is one bar.
type Fig10Entry struct {
	Alloc      string
	Throughput float64
	RelToGlibc float64
	Failed     bool
}

// Fig10 runs the Ruby allocator comparison.
func Fig10(l Lookup) []Fig10Entry {
	restart := l.Cfg.rubyRestart(rubyRestartEvery)
	base := l.Get(rubyCell("glibc", restart))
	var out []Fig10Entry
	for _, alloc := range RubyAllocators() {
		cr := l.Get(rubyCell(alloc, restart))
		out = append(out, Fig10Entry{
			Alloc:      alloc,
			Throughput: cr.Res.Throughput,
			RelToGlibc: relThroughput(cr, base),
			Failed:     cr.Failed || base.Failed,
		})
	}
	return out
}

// Fig10Table renders Figure 10.
func Fig10Table(entries []Fig10Entry) *report.Table {
	t := report.New("Figure 10: Ruby on Rails throughput, 8 Xeon cores (restart every 500 txns)",
		"allocator", "transactions/sec", "vs glibc")
	for _, e := range entries {
		if e.Failed {
			t.Add(e.Alloc, "FAILED", "-")
			continue
		}
		t.Add(e.Alloc, report.F(e.Throughput, 1), report.Pct(e.RelToGlibc))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 11: Rails CPU time per transaction breakdown, normalized so glibc
// totals 100%.

// Fig11Entry is one stacked bar.
type Fig11Entry struct {
	Alloc           string
	MMPct, OtherPct float64
	Failed          bool
}

// Fig11 runs the Ruby breakdown.
func Fig11(l Lookup) []Fig11Entry {
	restart := l.Cfg.rubyRestart(rubyRestartEvery)
	baseCr := l.Get(rubyCell("glibc", restart))
	base := baseCr.Res.CyclesPerTxn()
	var out []Fig11Entry
	for _, alloc := range RubyAllocators() {
		cr := l.Get(rubyCell(alloc, restart))
		if cr.Failed || baseCr.Failed || base == 0 {
			out = append(out, Fig11Entry{Alloc: alloc, Failed: true})
			continue
		}
		mm := cr.Res.ClassCyclesPerTxn(sim.ClassAlloc)
		total := cr.Res.CyclesPerTxn()
		out = append(out, Fig11Entry{
			Alloc:    alloc,
			MMPct:    mm / base * 100,
			OtherPct: (total - mm) / base * 100,
		})
	}
	return out
}

// Fig11Table renders Figure 11.
func Fig11Table(entries []Fig11Entry) *report.Table {
	t := report.New("Figure 11: Rails CPU time per transaction breakdown, 8 Xeon cores (glibc = 100)",
		"allocator", "memory management", "others", "total")
	for _, e := range entries {
		if e.Failed {
			t.Add(e.Alloc, "FAILED", "-", "-")
			continue
		}
		t.Add(e.Alloc, report.F(e.MMPct, 1), report.F(e.OtherPct, 1),
			report.F(e.MMPct+e.OtherPct, 1))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 12: throughput improvement from restarting the Ruby processes at
// various periods, for glibc and DDmalloc.

// Fig12Periods is the paper's sweep (0 = no restart).
var Fig12Periods = []int{20, 100, 500, 2500, 0}

// Fig12Entry is one curve point.
type Fig12Entry struct {
	Alloc       string
	Period      int // full-scale transactions per process; 0 = no restart
	Throughput  float64
	VsNoRestart float64 // relative to the same allocator without restarts
	Failed      bool
}

// Fig12 runs the restart-period sweep.
func Fig12(l Lookup) []Fig12Entry {
	var out []Fig12Entry
	for _, alloc := range []string{"glibc", "ddmalloc"} {
		base := l.Get(rubyCell(alloc, 0))
		for _, period := range Fig12Periods {
			cr := l.Get(rubyCell(alloc, l.Cfg.rubyRestart(period)))
			out = append(out, Fig12Entry{
				Alloc:       alloc,
				Period:      period,
				Throughput:  cr.Res.Throughput,
				VsNoRestart: relThroughput(cr, base),
				Failed:      cr.Failed || base.Failed,
			})
		}
	}
	return out
}

// Fig12Table renders Figure 12.
func Fig12Table(entries []Fig12Entry) *report.Table {
	t := report.New("Figure 12: throughput vs process restart period (Rails, 8 Xeon cores)",
		"allocator", "restart period", "transactions/sec", "vs no restart")
	for _, e := range entries {
		period := "no restart"
		if e.Period > 0 {
			period = report.F(float64(e.Period), 0)
		}
		if e.Failed {
			t.Add(e.Alloc, period, "FAILED", "-")
			continue
		}
		t.Add(e.Alloc, period, report.F(e.Throughput, 1), report.Pct(e.VsNoRestart))
	}
	return t
}
