package experiments

import (
	"reflect"
	"testing"

	"webmm/internal/memsys"
)

// memSchedCfg is small enough for per-policy runs in CI but large enough
// that 8 cores generate real bank traffic.
func memSchedCfg() Config {
	return Config{Scale: 256, Warmup: 1, Measure: 1, Seed: 20090615}
}

// The default (bus) path must carry no memory-system stats: Result.Mem is
// the only new result field, and nil there means the JSON encoding — and
// therefore every committed fingerprint — is byte-identical to pre-seam
// builds. (The golden and fingerprint tests are the cross-build half of
// this differential check; this pins the mechanism.)
func TestBusCellHasNoMemStats(t *testing.T) {
	r := NewRunner(memSchedCfg())
	cr := r.Run(memSchedCell("ddmalloc", "", 2))
	if cr.Failed {
		t.Fatal("bus cell failed")
	}
	if cr.Res.Mem != nil {
		t.Fatalf("bus cell carries memory-system stats: %+v", cr.Res.Mem)
	}
}

// Every scheduling policy must be deterministic: the same seed in a fresh
// runner reproduces the entire cell result, stats included.
func TestMemSchedDeterministicPerPolicy(t *testing.T) {
	for _, p := range memsys.PolicyNames() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			a := NewRunner(memSchedCfg()).Run(memSchedCell("region", string(p), 2))
			b := NewRunner(memSchedCfg()).Run(memSchedCell("region", string(p), 2))
			if a.Failed || b.Failed {
				t.Fatal("cell failed")
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("policy %s not deterministic:\n%+v\n%+v", p, a, b)
			}
			if a.Res.Mem == nil || a.Res.Mem.Total() == 0 {
				t.Errorf("policy %s recorded no DRAM traffic", p)
			}
		})
	}
}

// A DRAM cell and its bus twin must never share a cache identity: the keys
// (and the Cell structs the cache re-verifies against) differ in MemSched.
func TestMemSchedCellKeysDistinct(t *testing.T) {
	bus := memSchedCell("default", "", 4)
	seen := map[string]bool{bus.Key(): true}
	for _, p := range memsys.PolicyNames() {
		k := memSchedCell("default", string(p), 4).Key()
		if seen[k] {
			t.Fatalf("cache key %q collides", k)
		}
		seen[k] = true
	}
	if k := memSchedCell("default", "frfcfs", 4).Key(); k == bus.Key() {
		t.Fatalf("bus and DRAM cells share key %q", k)
	}
}

// An unknown policy must fail the cell with the registry's helpful error,
// not panic or silently fall back to the bus.
func TestMemSchedUnknownPolicyFails(t *testing.T) {
	r := NewRunner(memSchedCfg())
	cr := r.Run(memSchedCell("default", "roundrobin", 1))
	if !cr.Failed {
		t.Fatal("unknown policy did not fail the cell")
	}
}

// The acceptance criterion: at 8 cores the row-buffer hit rate must spread
// across allocators (placement matters to the banks) — the allocator ×
// policy interaction the memsched figure reports.
func TestMemSchedAllocatorPolicyInteraction(t *testing.T) {
	r := NewRunner(memSchedCfg())
	hitRates := map[string]float64{}
	for _, alloc := range PHPAllocators() {
		cr := r.Run(memSchedCell(alloc, string(memsys.PolicyFRFCFS), 8))
		if cr.Failed {
			t.Fatalf("%s cell failed", alloc)
		}
		ms := cr.Res.Mem
		if ms == nil || ms.Total() == 0 {
			t.Fatalf("%s: no DRAM traffic at 8 cores", alloc)
		}
		hitRates[alloc] = ms.RowHitRate()
	}
	min, max := 1.0, 0.0
	for _, h := range hitRates {
		if h < min {
			min = h
		}
		if h > max {
			max = h
		}
	}
	if max-min < 0.01 {
		t.Errorf("row-buffer hit rate spread %v across allocators is not measurable: %v", max-min, hitRates)
	}
}
