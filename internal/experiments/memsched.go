package experiments

import (
	"fmt"

	"webmm/internal/memsys"
	"webmm/internal/report"
	"webmm/internal/workload"
)

// ---------------------------------------------------------------------------
// Memory-scheduler sweep: allocator × DRAM scheduling policy × core count,
// the question the paper's bus model cannot ask. The paper attributes the
// region allocator's 8-core collapse to raw bus traffic; swapping the bus
// for the DRAM model (internal/memsys) decomposes that traffic by where it
// lands: region's sequential buffer sweeps enjoy open-row hits, DDmalloc's
// recycled pools revisit rows, and the interleaving of 8 cores' streams at
// the banks is exactly what the scheduling policy arbitrates. The figure
// reports, per (allocator, policy, cores) point, throughput against the
// same allocator on the plain bus and the row-buffer hit/conflict split —
// the allocator × policy interaction the ISSUE's acceptance criterion asks
// to be visible.

// MemSchedCores is the core-count axis: the mid-point and the full machine,
// where inter-core bank interference is strongest.
var MemSchedCores = []int{4, 8}

// memSchedWorkload is the swept workload: MediaWiki(rw) — the paper's
// read/write workload, whose dirty-line writebacks give the banks both
// demand reads and writeback traffic to arbitrate.
func memSchedWorkload() string { return workload.MediaWikiRW().Name }

// MemSchedEntry is one (allocator, policy, cores) point of the sweep.
// Policy "bus" is the paper's flat bus model — the baseline row.
type MemSchedEntry struct {
	Alloc      string
	Policy     string
	Cores      int
	Throughput float64
	// VsBus is throughput relative to the same allocator and core count
	// on the bus model.
	VsBus float64
	// Row-buffer outcome rates (fractions of all DRAM requests); zero for
	// the bus rows, which have no banks.
	RowHitRate      float64
	RowConflictRate float64
	MaxBankQueue    int
	Failed          bool
}

// memSchedCell is one sweep cell: MediaWiki(rw) on Xeon, the platform whose
// bus is the paper's bottleneck. policy "" is the bus baseline.
func memSchedCell(alloc, policy string, cores int) Cell {
	c := phpCell("xeon", alloc, memSchedWorkload(), cores)
	c.MemSched = policy
	return c
}

// MemSched runs the sweep: every PHP allocator × (bus + every registered
// policy) × MemSchedCores.
func MemSched(l Lookup) []MemSchedEntry {
	var out []MemSchedEntry
	for _, alloc := range PHPAllocators() {
		for _, cores := range MemSchedCores {
			base := l.Get(memSchedCell(alloc, "", cores))
			out = append(out, MemSchedEntry{
				Alloc: alloc, Policy: "bus", Cores: cores,
				Throughput: base.Res.Throughput,
				VsBus:      relThroughput(base, base),
				Failed:     base.Failed,
			})
			for _, p := range memsys.PolicyNames() {
				cr := l.Get(memSchedCell(alloc, string(p), cores))
				e := MemSchedEntry{
					Alloc: alloc, Policy: string(p), Cores: cores,
					Throughput: cr.Res.Throughput,
					VsBus:      relThroughput(cr, base),
					Failed:     cr.Failed || base.Failed,
				}
				if ms := cr.Res.Mem; ms != nil {
					e.RowHitRate = ms.RowHitRate()
					e.RowConflictRate = ms.RowConflictRate()
					e.MaxBankQueue = ms.MaxQueueDepth
				}
				out = append(out, e)
			}
		}
	}
	return out
}

// MemSchedTable renders the sweep.
func MemSchedTable(entries []MemSchedEntry) *report.Table {
	t := report.New("Memory-scheduler sweep: allocator x policy x cores (MediaWiki(rw), Xeon)",
		"allocator", "policy", "cores", "transactions/sec", "vs bus", "row hits", "row conflicts", "max bank queue")
	for _, e := range entries {
		if e.Failed {
			t.Add(e.Alloc, e.Policy, fmt.Sprint(e.Cores), "FAILED", "-", "-", "-", "-")
			continue
		}
		hit, conf, q := "-", "-", "-"
		if e.Policy != "bus" {
			hit = report.PctOf(e.RowHitRate)
			conf = report.PctOf(e.RowConflictRate)
			q = fmt.Sprint(e.MaxBankQueue)
		}
		t.Add(e.Alloc, e.Policy, fmt.Sprint(e.Cores), report.F(e.Throughput, 1),
			report.Pct(e.VsBus), hit, conf, q)
	}
	return t
}

// MemSchedChart renders the row-buffer hit rate of every DRAM point — the
// allocator × policy interaction is the spread of these bars: allocators
// whose placement streams rows sit high, and policies reorder the same
// traffic into different hit rates.
func MemSchedChart(entries []MemSchedEntry) *report.Chart {
	ch := report.NewChart("DRAM row-buffer hit rate (%) by allocator x policy x cores")
	for _, e := range entries {
		if e.Policy == "bus" || e.Failed {
			continue
		}
		ch.Add(fmt.Sprintf("%-8s %-7s @%d", e.Alloc, e.Policy, e.Cores), 100*e.RowHitRate)
	}
	return ch
}
