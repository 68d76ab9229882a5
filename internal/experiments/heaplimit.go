package experiments

import (
	"fmt"

	"webmm/internal/mem"
	"webmm/internal/report"
	"webmm/internal/workload"
)

// ---------------------------------------------------------------------------
// Heap-limit sweep: throughput vs per-stream memory budget for the PHP
// allocators, mirroring the paper's Ruby restart-period sweep (Figure 12)
// with the budget on the x-axis. "Optimal Heap Limits for Reducing Browser
// Memory Use" asks how small a heap limit can get before it costs
// throughput; this simulator answers sharply: the paper's allocators
// pre-size their pools and recycle, so each one has a hard memory *floor* —
// above it the limit is free (throughput identical to unlimited), below it
// the tenant cannot even build (a FAILED row, the graceful-degradation path
// webmm serve relies on when a controller shrinks a tenant's limit). The
// spread of the floors is the experiment's finding: zend-style arenas fit
// in hundreds of KiB where region buffers and DDmalloc's recycled pools
// demand hundreds of MiB of address space per stream.

// HeapLimitBudgets is the per-stream budget ladder, largest first (0 =
// unlimited). Chosen to bracket every PHP allocator family's floor: region
// (~hundreds of MiB of pre-mapped buffer space), DDmalloc (~tens of MiB of
// recycled pools), and zend arenas (<1 MiB).
var HeapLimitBudgets = []uint64{0, 512 * mem.MiB, 128 * mem.MiB, 32 * mem.MiB,
	8 * mem.MiB, 2 * mem.MiB, 512 * mem.KiB}

// HeapLimitEntry is one (allocator, budget) point of the sweep.
type HeapLimitEntry struct {
	Alloc       string
	Budget      uint64 // per-stream bytes; 0 = unlimited
	Throughput  float64
	VsUnlimited float64 // relative to the same allocator unlimited
	Denials     uint64  // budget-refused mappings during the run
	Bailouts    uint64  // transactions served as error pages
	Failed      bool    // OOM: the allocator could not fit the budget
}

// heapLimitCell is one sweep cell: phpBB on one Xeon core — the same
// configuration as the Figure 9 footprint study, which is the unconstrained
// baseline this sweep pressures.
func heapLimitCell(alloc string, budgetBytes uint64) Cell {
	c := phpCell("xeon", alloc, workload.PhpBB().Name, 1)
	c.Budget = budgetBytes
	return c
}

// HeapLimit runs the sweep.
func HeapLimit(l Lookup) []HeapLimitEntry {
	var out []HeapLimitEntry
	for _, alloc := range PHPAllocators() {
		base := l.Get(heapLimitCell(alloc, 0))
		for _, b := range HeapLimitBudgets {
			cr := l.Get(heapLimitCell(alloc, b))
			out = append(out, HeapLimitEntry{
				Alloc:       alloc,
				Budget:      b,
				Throughput:  cr.Res.Throughput,
				VsUnlimited: relThroughput(cr, base),
				Denials:     cr.BudgetDenials,
				Bailouts:    cr.Calls.Bailouts,
				Failed:      cr.Failed || base.Failed,
			})
		}
	}
	return out
}

// budgetLabel renders a budget for the table and chart rows.
func budgetLabel(b uint64) string {
	switch {
	case b == 0:
		return "unlimited"
	case b >= mem.MiB:
		return fmt.Sprintf("%dMiB", b/mem.MiB)
	default:
		return fmt.Sprintf("%dKiB", b/mem.KiB)
	}
}

// HeapLimitTable renders the sweep. FAILED rows mark budgets below the
// allocator's memory floor (the cell could not be built — the OOM outcome).
func HeapLimitTable(entries []HeapLimitEntry) *report.Table {
	t := report.New("Heap-limit sweep: throughput vs per-stream budget (phpBB, 1 Xeon core)",
		"allocator", "budget", "transactions/sec", "vs unlimited", "denials", "bailouts")
	for _, e := range entries {
		if e.Failed {
			t.Add(e.Alloc, budgetLabel(e.Budget), "FAILED (OOM)", "-", "-", "-")
			continue
		}
		t.Add(e.Alloc, budgetLabel(e.Budget), report.F(e.Throughput, 1),
			report.Pct(e.VsUnlimited), report.F(float64(e.Denials), 0),
			report.F(float64(e.Bailouts), 0))
	}
	return t
}

// HeapLimitChart renders the sweep as one bar group per allocator, budgets
// largest→smallest; failed points draw as zero-height bars so the cliff is
// visible in the chart itself.
func HeapLimitChart(entries []HeapLimitEntry) *report.Chart {
	ch := report.NewChart("Throughput vs per-stream heap limit (0 bar = OOM)")
	for _, e := range entries {
		tput := e.Throughput
		if e.Failed {
			tput = 0
		}
		ch.Add(fmt.Sprintf("%-8s @%s", e.Alloc, budgetLabel(e.Budget)), tput)
	}
	return ch
}
