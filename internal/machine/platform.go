// Package machine assembles the simulated evaluation platforms — the
// two 8-core machines of the paper's Section 4.1 — and runs allocator/
// workload drivers on them, pricing every recorded memory access through
// the cache hierarchy and the shared-bus queueing model.
package machine

import (
	"fmt"
	"strings"

	"webmm/internal/cache"
	"webmm/internal/cpu"
	"webmm/internal/mem"
	"webmm/internal/memsys"
)

// PrefetchConfig sizes a hardware stream prefetcher; nil means none.
type PrefetchConfig struct {
	Trackers int
	Depth    int
}

// Platform describes one evaluation machine.
type Platform struct {
	Name string

	// Topology.
	MaxCores       int
	ThreadsPerCore int
	CoresPerL2     int // cores sharing each L2 cache

	// Cache geometry.
	L1D, L1I   cache.Config
	L2         cache.Config
	TLBEntries int

	// Large-page support (the page shift used for LargePages mappings).
	LargePageShift uint8

	Prefetch *PrefetchConfig

	Core cpu.Model

	// Mem is the memory system below the caches. Both stock platforms use
	// the paper's shared-bus model (memsys.Bus); experiments swap in a
	// DRAM model (memsys.DRAM) built around the same link to study
	// row-buffer locality and scheduling policies.
	Mem memsys.Model
}

// Threads returns the hardware threads available with nCores active cores.
func (p Platform) Threads(nCores int) int { return nCores * p.ThreadsPerCore }

// Validate panics if the platform is inconsistent; used by constructors.
func (p Platform) validate() Platform {
	if p.MaxCores%p.CoresPerL2 != 0 {
		panic(fmt.Sprintf("machine %s: %d cores not divisible into L2 clusters of %d",
			p.Name, p.MaxCores, p.CoresPerL2))
	}
	if p.Mem == nil {
		panic(fmt.Sprintf("machine %s: no memory system", p.Name))
	}
	return p
}

// Xeon returns the Intel Xeon E5320 "Clovertown" configuration of the paper:
// two quad-core 1.86 GHz sockets (eight cores, one thread each), 32 KiB L1I
// and L1D per core, a 4 MiB L2 shared by each core pair, an aggressive
// hardware stream prefetcher, out-of-order cores that overlap most store and
// much load latency, and a front-side bus whose bandwidth is modest relative
// to the compute it feeds — which is exactly the bottleneck the paper
// exposes. Large pages (2 MiB) exist but are disabled by default, matching
// the paper's Linux configuration.
func Xeon() Platform {
	return Platform{
		Name:           "xeon",
		MaxCores:       xeonCores,
		ThreadsPerCore: 1,
		CoresPerL2:     xeonCoresPerL2,
		L1D:            cache.Config{Name: "L1D", Size: 32 * mem.KiB, Ways: 8},
		L1I:            cache.Config{Name: "L1I", Size: 32 * mem.KiB, Ways: 8},
		L2:             cache.Config{Name: "L2", Size: 4 * mem.MiB, Ways: 16},
		TLBEntries:     256,
		LargePageShift: mem.LargePageShiftXeon,
		Prefetch:       &PrefetchConfig{Trackers: 16, Depth: 4},
		Core: cpu.Model{
			FreqHz: 1.86e9, CPI: 0.75,
			L2HitLat: 14, MemLat: 220, TLBMissLat: 30,
			ReadExpose: 0.60, WriteExpose: 0.15, IFetchExpose: 0.30,
			SMTHideCoeff: 0, SnoopPerCore: 3,
		},
		// Dual 1066 MT/s FSBs sustain ~8 GB/s in practice; at the
		// 1.86 GHz core clock that is ~4.3 bytes per cycle.
		Mem: memsys.NewBus(memsys.Link{BytesPerCycle: 4.3, BytesPerTxn: mem.LineSize, MaxUtil: 0.93}),
	}.validate()
}

// Niagara returns the Sun UltraSPARC T1 configuration: one 1.2 GHz chip with
// eight in-order cores of four hardware threads each (32 threads), tiny
// per-core L1 caches shared by the four threads, a single 3 MiB L2 shared by
// all cores, no hardware prefetcher, software-assisted TLB fill (expensive
// misses), and a memory system whose bandwidth is high relative to the
// compute — the paper's explanation for why the region allocator degrades
// less here. Large pages are 4 MiB and the paper's runs use them.
func Niagara() Platform {
	return Platform{
		Name:           "niagara",
		MaxCores:       niagaraCores,
		ThreadsPerCore: 4,
		CoresPerL2:     niagaraCoresPerL2,
		L1D:            cache.Config{Name: "L1D", Size: 8 * mem.KiB, Ways: 4},
		L1I:            cache.Config{Name: "L1I", Size: 16 * mem.KiB, Ways: 4},
		L2:             cache.Config{Name: "L2", Size: 3 * mem.MiB, Ways: 12},
		TLBEntries:     64,
		LargePageShift: mem.LargePageShiftNiagara,
		Prefetch:       nil,
		Core: cpu.Model{
			FreqHz: 1.2e9, CPI: 1.15,
			L2HitLat: 22, MemLat: 130, TLBMissLat: 140,
			ReadExpose: 1.0, WriteExpose: 1.0, IFetchExpose: 0.60,
			SMTHideCoeff: 2.0, SnoopPerCore: 0,
		},
		// Four DDR2-533 channels peak at ~17 GB/s; ~10 GB/s sustained
		// at the 1.2 GHz core clock is ~8.5 bytes per cycle — still far
		// more headroom relative to compute than the Xeon FSB, which is
		// the paper's explanation for the milder region degradation.
		Mem: memsys.NewBus(memsys.Link{BytesPerCycle: 7.5, BytesPerTxn: mem.LineSize, MaxUtil: 0.93}),
	}.validate()
}

// The core count and L2 cluster width of each platform, read by both its
// constructor and its registry entry.
const (
	xeonCores         = 8
	xeonCoresPerL2    = 2
	niagaraCores      = 8
	niagaraCoresPerL2 = 8
)

// PlatformDesc describes one registered platform; the table drives name
// resolution, CLI usage and catalogue output, so a new platform cannot
// drift out of any of them.
type PlatformDesc struct {
	Name string
	// Doc is the one-line hardware summary shown in usage and -list.
	Doc string
	// MaxCores is the platform's core count, so a cell's cores can be
	// checked without constructing the platform.
	MaxCores int
	// CoresPerL2 is how many cores share each L2 cache, so the runner can
	// tell which core counts price alike without constructing the
	// platform.
	CoresPerL2 int
	// New constructs a fresh Platform value.
	New func() Platform
}

// platformRegistry is the authoritative platform table, in presentation
// order.
var platformRegistry = []PlatformDesc{
	{
		Name:       "xeon",
		Doc:        "Intel Xeon E5320: 8 OoO cores, paired 4 MiB L2s, prefetcher, modest FSB",
		MaxCores:   xeonCores,
		CoresPerL2: xeonCoresPerL2,
		New:        Xeon,
	},
	{
		Name:       "niagara",
		Doc:        "Sun UltraSPARC T1: 8 in-order cores x 4 threads, shared 3 MiB L2, wide memory",
		MaxCores:   niagaraCores,
		CoresPerL2: niagaraCoresPerL2,
		New:        Niagara,
	},
}

// Platforms returns the registered platform descriptors in presentation
// order. The slice is a copy; callers may not mutate the registry.
func Platforms() []PlatformDesc {
	out := make([]PlatformDesc, len(platformRegistry))
	copy(out, platformRegistry)
	return out
}

// PlatformNames returns the registered platform names in presentation order.
func PlatformNames() []string {
	out := make([]string, len(platformRegistry))
	for i, d := range platformRegistry {
		out[i] = d.Name
	}
	return out
}

// PlatformDescByName returns the named platform's registry entry, with the
// registered candidates in the error so the message can never drift from
// the registry. It constructs nothing.
func PlatformDescByName(name string) (PlatformDesc, error) {
	for _, d := range platformRegistry {
		if d.Name == name {
			return d, nil
		}
	}
	return PlatformDesc{}, fmt.Errorf("machine: unknown platform %q (valid: %v)", name, PlatformNames())
}

// PlatformByName returns a fresh value of the named platform.
func PlatformByName(name string) (Platform, error) {
	d, err := PlatformDescByName(name)
	if err != nil {
		return Platform{}, err
	}
	return d.New(), nil
}

// UsagePlatforms renders the platform table for CLI -h output, one line per
// platform, matching the experiment registry's usage format.
func UsagePlatforms() string {
	var b strings.Builder
	for _, d := range platformRegistry {
		fmt.Fprintf(&b, "  %-8s %s\n", d.Name, d.Doc)
	}
	return b.String()
}
