package experiments

import (
	"reflect"
	"testing"

	"webmm/internal/mem"
)

// TestHeapLimitSweep checks the sweep's shape at test scale: every allocator
// has a memory floor — identical throughput above it, a FAILED row below it
// — and the whole table is deterministic.
func TestHeapLimitSweep(t *testing.T) {
	r := NewRunner(faultCfg())
	entries := HeapLimit(direct(r))

	want := len(PHPAllocators()) * len(HeapLimitBudgets)
	if len(entries) != want {
		t.Fatalf("sweep produced %d entries, want %d", len(entries), want)
	}

	byAlloc := map[string][]HeapLimitEntry{}
	for _, e := range entries {
		byAlloc[e.Alloc] = append(byAlloc[e.Alloc], e)
	}
	for _, alloc := range PHPAllocators() {
		es := byAlloc[alloc]
		if len(es) == 0 {
			t.Fatalf("allocator %q missing from the sweep", alloc)
		}
		if es[0].Budget != 0 || es[0].Failed {
			t.Fatalf("%s: first entry must be a clean unlimited baseline, got %+v", alloc, es[0])
		}
		// The ladder descends: once an allocator fails, every smaller
		// budget fails too (the floor is a cliff, not a band).
		failed := false
		for _, e := range es {
			if failed && !e.Failed {
				t.Errorf("%s: completed at %s below a failed larger budget", alloc, budgetLabel(e.Budget))
			}
			failed = failed || e.Failed
			if !e.Failed {
				// Above the floor the limit is free: throughput matches
				// unlimited exactly (the paper's allocators pre-size and
				// recycle, so an unexercised budget changes nothing).
				if e.Throughput != es[0].Throughput {
					t.Errorf("%s @%s: throughput %v differs from unlimited %v",
						alloc, budgetLabel(e.Budget), e.Throughput, es[0].Throughput)
				}
				if e.VsUnlimited != 1 {
					t.Errorf("%s @%s: VsUnlimited = %v, want 1", alloc, budgetLabel(e.Budget), e.VsUnlimited)
				}
			}
		}
		if !failed {
			t.Errorf("%s: no budget in the ladder found the allocator's floor", alloc)
		}
	}

	// The floors spread across allocator families (the experiment's
	// finding): zend arenas fit where region buffers cannot.
	zendAt := func(b uint64) HeapLimitEntry {
		for _, e := range byAlloc["default"] {
			if e.Budget == b {
				return e
			}
		}
		t.Fatalf("budget %d not in sweep", b)
		return HeapLimitEntry{}
	}
	if e := zendAt(2 * mem.MiB); e.Failed {
		t.Error("zend failed at 2MiB; its arenas fit in under 1MiB")
	}
	for _, e := range byAlloc["region"] {
		if e.Budget == 2*mem.MiB && !e.Failed {
			t.Error("region completed at 2MiB; its pre-mapped buffers need hundreds of MiB")
		}
	}

	// Deterministic: a fresh runner reproduces the table exactly.
	again := HeapLimit(direct(NewRunner(faultCfg())))
	if !reflect.DeepEqual(entries, again) {
		t.Error("heap-limit sweep is not deterministic across runners")
	}

	// Renderers accept the entries (smoke: no panics, rows line up).
	if tab := HeapLimitTable(entries); len(tab.Rows) != len(entries) {
		t.Errorf("table has %d rows for %d entries", len(tab.Rows), len(entries))
	}
	HeapLimitChart(entries)
}
