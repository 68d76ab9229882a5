// Package mem provides the simulated 64-bit address space that every
// allocator in this repository manages.
//
// The paper's allocators (PLDI'09, Inoue et al.) are C libraries that obtain
// memory from the operating system with mmap/brk and hand out raw pointers.
// Go has neither raw pointers into an OS heap nor manual free, so this
// package substitutes a *simulated* address space: allocators request
// aligned chunks ("mappings") and compute object addresses inside them, and
// the memory-hierarchy simulator (internal/cache, internal/machine) observes
// the resulting access streams. No backing storage exists; only addresses
// and sizes are tracked.
//
// The address space also remembers which mappings use large pages, because
// the D-TLB model needs the page size of an arbitrary address (the paper's
// DDmalloc uses 4 MB pages on Niagara and, optionally, large pages on Xeon).
package mem

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Addr is a simulated virtual address. Address 0 is the null pointer and is
// never returned by a mapping.
type Addr uint64

// Common size constants.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30

	// LineSize is the cache-line size used throughout the simulator.
	// Both evaluation machines in the paper use 64-byte lines.
	LineSize = 64

	// SmallPageShift is the base page size (4 KiB) used by both platforms.
	SmallPageShift = 12
	// LargePageShiftXeon is the 2 MiB large page available on x86-64.
	LargePageShiftXeon = 21
	// LargePageShiftNiagara is the 4 MiB large page the paper uses on
	// Solaris/Niagara.
	LargePageShiftNiagara = 22
)

// PageKind selects the page size backing a mapping.
type PageKind uint8

const (
	// SmallPages backs a mapping with the platform's 4 KiB base pages.
	SmallPages PageKind = iota
	// LargePages backs a mapping with the platform's large pages
	// (2 MiB on Xeon, 4 MiB on Niagara).
	LargePages
)

// Mapping describes one contiguous region returned by Map.
type Mapping struct {
	Base Addr
	Size uint64
	Kind PageKind
}

// End returns the first address past the mapping.
func (m Mapping) End() Addr { return m.Base + Addr(m.Size) }

// Contains reports whether a falls inside the mapping.
func (m Mapping) Contains(a Addr) bool { return a >= m.Base && a < m.End() }

// AddressSpace hands out non-overlapping, aligned mappings from a private
// region of the simulated 64-bit address space. It is the model of the
// operating system's mmap underneath every allocator.
//
// Concurrency contract: mapping operations (Map/TryMap/Unmap/PageShift and
// friends) belong to one owner goroutine — the simulator is single-threaded
// by design so that runs are reproducible. The budget, however, is a control
// plane: SetBudget, Budget, Mapped, HighWater and BudgetDenials are safe to
// call from other goroutines concurrently with the owner, which is how the
// adaptive budget controller (internal/budget) retargets a running cell's
// limit mid-flight. Every TryMap re-reads the budget, so an allocator
// crossing an arena-map boundary observes the latest limit.
type AddressSpace struct {
	base       Addr
	next       Addr
	limit      Addr
	largeShift uint8 // page shift used for LargePages mappings

	mapped    atomic.Uint64 // bytes currently mapped
	highWater atomic.Uint64 // peak of mapped
	mapCalls  uint64
	unmaps    uint64

	// denials counts TryMap failures caused by the byte budget (injected
	// faults and span exhaustion are not denials). The adaptive controller
	// and the heap-limit sweep read it to report OOM pressure per process.
	denials atomic.Uint64

	// large holds LargePages mappings sorted by base so PageShift can
	// find the page size of an address with a binary search. Small-page
	// mappings are not recorded individually: small is the default.
	large []Mapping

	// largeEpoch counts mutations of the large-mapping list, so callers
	// that cache a PageShiftRegion answer can tell when it may be stale.
	largeEpoch uint64

	// budget, when nonzero, caps the bytes that may be simultaneously
	// mapped: TryMap fails (and Map panics) once mapped+size would exceed
	// it. This models an OS memory limit (ulimit/cgroup) independent of
	// the address-space span. Atomic so a budget controller can retarget
	// it while the owner goroutine maps.
	budget atomic.Uint64

	// inject, when non-nil, is consulted by TryMap before anything else;
	// returning true fails the call with an injected OOM. Fault-injection
	// hook for the -faults framework.
	inject func(size uint64) bool
}

// OOMError reports a failed TryMap: either the configured byte budget was
// exceeded, the address-space span was exhausted, or a fault injector
// forced the failure.
type OOMError struct {
	Need     uint64 // bytes requested (after page rounding)
	Budget   uint64 // configured budget (0 = unlimited)
	Mapped   uint64 // bytes mapped at the time of the failure
	Injected bool   // true when a fault injector forced the failure
}

func (e *OOMError) Error() string {
	if e.Injected {
		return fmt.Sprintf("mem: injected map failure (%d bytes)", e.Need)
	}
	if e.Budget > 0 {
		return fmt.Sprintf("mem: budget exceeded: need %d bytes, %d of %d mapped",
			e.Need, e.Mapped, e.Budget)
	}
	return fmt.Sprintf("mem: address space exhausted: need %d bytes", e.Need)
}

// NewAddressSpace returns an address space serving mappings from
// [base, base+span). The largePageShift selects the platform's large-page
// size (use LargePageShiftXeon or LargePageShiftNiagara).
func NewAddressSpace(base Addr, span uint64, largePageShift uint8) *AddressSpace {
	if base == 0 {
		base = 1 << 32 // keep address 0 unmapped: 0 is the null pointer
	}
	return &AddressSpace{
		base:       base,
		next:       base,
		limit:      base + Addr(span),
		largeShift: largePageShift,
	}
}

// Map reserves size bytes aligned to align (which must be a power of two, or
// zero for page alignment) and returns the mapping. Map never reuses
// addresses: like a simulator's mmap it always moves upward, so a stale
// pointer can never alias a new mapping. Map panics when the space cannot
// satisfy the request; callers that must survive OOM use TryMap.
func (as *AddressSpace) Map(size, align uint64, kind PageKind) Mapping {
	m, err := as.TryMap(size, align, kind)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// TryMap is Map with an error return: misuse (zero size, bad alignment)
// still panics — those are programming errors — but exhaustion of the
// span or the configured budget, and injected faults, return an *OOMError
// so allocators can surface OOM as a null pointer instead of dying.
func (as *AddressSpace) TryMap(size, align uint64, kind PageKind) (Mapping, error) {
	if size == 0 {
		panic("mem: Map with size 0")
	}
	pageSize := uint64(1) << SmallPageShift
	if kind == LargePages {
		pageSize = uint64(1) << as.largeShift
	}
	if align == 0 {
		align = pageSize
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: Map alignment %d is not a power of two", align))
	}
	if align < pageSize {
		align = pageSize
	}
	size = roundUp(size, pageSize)

	mapped := as.mapped.Load()
	if as.inject != nil && as.inject(size) {
		return Mapping{}, &OOMError{Need: size, Budget: as.budget.Load(), Mapped: mapped, Injected: true}
	}
	// The budget is re-read on every call: an allocator crossing an
	// arena-map boundary observes limits the controller shrank (or grew)
	// since its previous mapping.
	if budget := as.budget.Load(); budget > 0 && mapped+size > budget {
		as.denials.Add(1)
		return Mapping{}, &OOMError{Need: size, Budget: budget, Mapped: mapped}
	}
	base := Addr(roundUp(uint64(as.next), align))
	end := base + Addr(size)
	if end > as.limit {
		return Mapping{}, &OOMError{Need: size, Budget: as.budget.Load(), Mapped: mapped}
	}
	as.next = end
	mapped = as.mapped.Add(size)
	as.mapCalls++
	if mapped > as.highWater.Load() {
		as.highWater.Store(mapped)
	}
	m := Mapping{Base: base, Size: size, Kind: kind}
	if kind == LargePages {
		as.large = append(as.large, m)
		as.largeEpoch++
	}
	return m, nil
}

// SetBudget caps the bytes that may be simultaneously mapped (0 removes
// the cap). Takes effect on the next TryMap/Map call; already-mapped bytes
// are kept even if they exceed the new budget. Safe to call concurrently
// with the owner goroutine's mapping operations — this is the knob the
// adaptive budget controller turns mid-run.
func (as *AddressSpace) SetBudget(bytes uint64) { as.budget.Store(bytes) }

// Budget returns the configured byte budget (0 = unlimited). Safe for
// concurrent use.
func (as *AddressSpace) Budget() uint64 { return as.budget.Load() }

// BudgetDenials returns how many TryMap calls the byte budget has refused
// (injected faults and span exhaustion are not counted). Safe for
// concurrent use.
func (as *AddressSpace) BudgetDenials() uint64 { return as.denials.Load() }

// SetFaultInjector installs a hook consulted on every TryMap/Map with the
// page-rounded request size; returning true fails the call with an
// injected OOMError. Pass nil to disable.
func (as *AddressSpace) SetFaultInjector(f func(size uint64) bool) { as.inject = f }

// Unmap releases a mapping's bytes from the footprint accounting. The
// address range is never recycled (see Map), so a dangling simulated pointer
// stays detectably invalid.
func (as *AddressSpace) Unmap(m Mapping) {
	if m.Size > as.mapped.Load() {
		panic("mem: Unmap of more bytes than are mapped")
	}
	as.mapped.Add(^(m.Size - 1)) // atomic subtract
	as.unmaps++
	if m.Kind == LargePages {
		for i := range as.large {
			if as.large[i].Base == m.Base {
				as.large = append(as.large[:i], as.large[i+1:]...)
				as.largeEpoch++
				break
			}
		}
	}
}

// PageShift returns log2 of the page size backing address a. Addresses in a
// LargePages mapping use the platform large-page shift; everything else is a
// small page.
func (as *AddressSpace) PageShift(a Addr) uint8 {
	// Binary search the sorted large-mapping list. Unmap keeps order.
	i := sort.Search(len(as.large), func(i int) bool { return as.large[i].End() > a })
	if i < len(as.large) && as.large[i].Contains(a) {
		return as.largeShift
	}
	return SmallPageShift
}

// PageShiftRegion returns the page shift backing a together with the
// maximal half-open address range [lo, hi) containing a over which that
// shift is constant: a large mapping's extent, or the gap between two large
// mappings. Callers cache the triple and revalidate it with LargeEpoch,
// turning the per-access binary search into a two-comparison range check
// for consecutive same-region addresses.
func (as *AddressSpace) PageShiftRegion(a Addr) (shift uint8, lo, hi Addr) {
	i := sort.Search(len(as.large), func(i int) bool { return as.large[i].End() > a })
	if i < len(as.large) && as.large[i].Contains(a) {
		return as.largeShift, as.large[i].Base, as.large[i].End()
	}
	lo = 0
	if i > 0 {
		lo = as.large[i-1].End()
	}
	hi = Addr(^uint64(0))
	if i < len(as.large) {
		hi = as.large[i].Base
	}
	return SmallPageShift, lo, hi
}

// LargeEpoch returns a counter that changes whenever the set of large-page
// mappings changes; see PageShiftRegion.
func (as *AddressSpace) LargeEpoch() uint64 { return as.largeEpoch }

// LargePageShift returns the platform's large-page shift.
func (as *AddressSpace) LargePageShift() uint8 { return as.largeShift }

// Mapped returns the bytes currently mapped. Safe for concurrent use (the
// budget controller samples it while the owner maps).
func (as *AddressSpace) Mapped() uint64 { return as.mapped.Load() }

// HighWater returns the peak number of simultaneously mapped bytes. Safe
// for concurrent use.
func (as *AddressSpace) HighWater() uint64 { return as.highWater.Load() }

// MapCalls returns how many Map calls have been served (the paper counts
// system calls to obtain chunks; the region allocator's 256 MB chunks make
// this negligible and we can verify that).
func (as *AddressSpace) MapCalls() uint64 { return as.mapCalls }

func roundUp(n, to uint64) uint64 {
	if to == 0 || to&(to-1) != 0 {
		panic(fmt.Sprintf("mem: roundUp to %d (not a power of two)", to))
	}
	return (n + to - 1) &^ (to - 1)
}

// RoundUp rounds n up to the next multiple of the power-of-two to.
func RoundUp(n, to uint64) uint64 { return roundUp(n, to) }

// LineOf returns the cache-line index of address a.
func LineOf(a Addr) uint64 { return uint64(a) / LineSize }

// LinesTouched returns how many distinct cache lines an access of size bytes
// at address a touches.
func LinesTouched(a Addr, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	first := uint64(a) / LineSize
	last := (uint64(a) + size - 1) / LineSize
	return last - first + 1
}
