// Package core implements DDmalloc, the defrag-dodging memory allocator
// that is the central contribution of the paper (§3).
//
// DDmalloc is a segregated-storage allocator built on three decisions:
//
//  1. The heap is an array of fixed-size, size-aligned *segments* (32 KiB by
//     default). A segment is carved into equal objects of one size class;
//     the object's segment — and therefore its size — is recovered from its
//     address alone, so objects carry *no per-object header*.
//  2. malloc and free do nothing but free-list maintenance: freed objects
//     are pushed LIFO onto a per-class list threaded through the objects
//     themselves; allocation pops the head. There is no coalescing, no
//     splitting, no sorting — the defragmentation work of general-purpose
//     allocators is eliminated entirely, not merely deferred (contrast
//     TCmalloc, which postpones it until a threshold).
//  3. freeAll re-initializes only the metadata (the free-list head array
//     and the per-segment size-class byte array), which is tiny compared to
//     the heap, so bulk freeing at end-of-transaction is almost free.
//
// The per-object free capability this preserves is what distinguishes
// defrag-dodging from region-based allocation on multicore machines: freed
// objects are reused LIFO while their cache lines are still warm, so the
// allocator adds no bus traffic as cores scale (paper §4.3, Figure 8).
//
// The implementation also carries the paper's §3.3 optimizations: the
// metadata block is displaced by a per-process offset to spread metadata
// across cache sets (vital on Niagara, where four threads share a tiny L1),
// and the heap can be backed by large pages to cut D-TLB misses.
package core

import (
	"fmt"

	"webmm/internal/heap"
	"webmm/internal/mem"
	"webmm/internal/sim"
)

// Instruction costs of the DDmalloc paths, in simulated instructions. The
// fast paths are a handful of ALU operations and the touches emitted
// alongside them; these constants are the "cost of maintenance of the free
// lists" the paper keeps and the only cost it keeps.
const (
	costMallocFast = 12 // class map + list pop
	costCarve      = 10 // bump within a segment
	costNewSeg     = 38 // acquire and initialize a segment
	costFree       = 11 // segment lookup + list push
	costLarge      = 30 // large-object segment marking
	costFreeAllFix = 60 // freeAll fixed overhead
	costReallocIP  = 14 // realloc satisfied in place

	// CodeSize is DDmalloc's simulated code footprint. The whole
	// allocator is a few small functions (this file), far below the
	// ~20 KiB of a defragmenting allocator.
	CodeSize = 4 * mem.KiB
)

// Options configure a DDmalloc heap.
type Options struct {
	// SegmentSize is the segment granule; the paper chose 32 KiB after a
	// throughput sweep (§3.2) and it must be a power of two.
	SegmentSize uint64
	// ArenaSegments is how many segments each arena mapping reserves.
	ArenaSegments int
	// LargePages backs the heap with large pages (§3.3 optimization 2;
	// on in the paper's Niagara runs, off on Xeon for fairness).
	LargePages bool
	// PID displaces the metadata block by (PID mod 61) cache lines to
	// avoid associativity overflows between processes sharing a cache
	// (§3.3 optimization 1).
	PID int
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{SegmentSize: 32 * mem.KiB, ArenaSegments: 2048}
}

func (o Options) withDefaults() Options {
	if o.SegmentSize == 0 {
		o.SegmentSize = 32 * mem.KiB
	}
	if o.SegmentSize&(o.SegmentSize-1) != 0 {
		panic(fmt.Sprintf("ddmalloc: segment size %d not a power of two", o.SegmentSize))
	}
	if o.ArenaSegments == 0 {
		o.ArenaSegments = 2048
	}
	return o
}

// segment mirrors the Go-side state of one heap segment. The simulated heap
// has no backing storage, so the authoritative metadata (size-class byte,
// free-list heads) lives at simulated addresses that DDmalloc touches, while
// this mirror lets the implementation act on it.
type segment struct {
	base mem.Addr
	// class is the size class carved into this segment; classUnused
	// marks an unused segment and classLarge a segment of a multi-
	// segment large object.
	class int16
	// remaining counts the never-yet-allocated objects at the segment
	// top; bump is the address of the first of them. DDmalloc stores the
	// count *in* the first unallocated object (paper Figure 3), so
	// carving reads and rewrites that word.
	remaining int
	bump      mem.Addr
}

const (
	classUnused int16 = -1
	classLarge  int16 = -2
)

// DDmalloc is the defrag-dodging allocator. It is not safe for concurrent
// use: the paper gives each runtime thread its own heap precisely so that no
// allocator locks are needed (§3.3 optimization 3).
type DDmalloc struct {
	env *sim.Env
	opt Options

	arenas   []mem.Mapping
	segments []segment
	// nextFresh indexes the first never-used segment; freeSegs lists
	// segments returned by large-object frees or freeAll.
	nextFresh int
	freeSegs  []int
	// largeRuns recycles multi-segment runs by length.
	largeRuns map[int][]int

	free [heap.NumClasses]heap.FreeList
	cur  [heap.NumClasses]int // index into segments, -1 if none

	// Simulated metadata addresses.
	metaBase  mem.Addr
	headsArr  mem.Addr // NumClasses free-list head pointers
	classArr  mem.Addr // one size-class byte per segment
	largeMeta mem.Addr

	usedSegs     int
	peakUsedSegs int
	metaBytes    uint64
	stats        heap.Stats

	// large tracks live large objects: start segment index and run length.
	large map[mem.Addr]largeObj
}

type largeObj struct {
	startSeg int
	nSegs    int
}

// New builds a DDmalloc heap drawing memory from env's address space.
func New(env *sim.Env, opt Options) *DDmalloc {
	opt = opt.withDefaults()
	d := &DDmalloc{
		env:       env,
		opt:       opt,
		largeRuns: make(map[int][]int),
		large:     make(map[mem.Addr]largeObj),
	}
	for i := range d.cur {
		d.cur[i] = -1
	}
	// Metadata mapping: heads array + class byte array + large-object
	// table, displaced by the PID offset.
	pidOff := uint64(opt.PID%61) * mem.LineSize
	metaSize := uint64(heap.NumClasses*8) + uint64(opt.ArenaSegments*8) + 4*mem.KiB + pidOff
	m := env.AS.Map(metaSize, 0, mem.SmallPages)
	d.metaBase = m.Base + mem.Addr(pidOff)
	d.headsArr = d.metaBase
	d.classArr = d.metaBase + heap.NumClasses*8
	d.largeMeta = d.classArr + mem.Addr(opt.ArenaSegments)
	d.metaBytes = metaSize
	if !d.addArena() {
		panic("ddmalloc: cannot map initial arena")
	}
	return d
}

// addArena maps another run of segments, aligned to the segment size so
// that address arithmetic can locate an object's segment. It reports false
// when the address space refuses (OOM).
func (d *DDmalloc) addArena() bool {
	kind := mem.SmallPages
	if d.opt.LargePages {
		kind = mem.LargePages
	}
	a, err := d.env.AS.TryMap(uint64(d.opt.ArenaSegments)*d.opt.SegmentSize, d.opt.SegmentSize, kind)
	if err != nil {
		return false
	}
	d.env.Instr(400, sim.ClassOS) // mmap syscall
	d.arenas = append(d.arenas, a)
	base := len(d.segments)
	for i := 0; i < d.opt.ArenaSegments; i++ {
		d.segments = append(d.segments, segment{
			base:  a.Base + mem.Addr(uint64(i)*d.opt.SegmentSize),
			class: classUnused,
		})
	}
	if base == 0 {
		d.nextFresh = 0
	}
	return true
}

// Name implements heap.Allocator.
func (d *DDmalloc) Name() string { return "DDmalloc" }

// CodeSize implements heap.Allocator.
func (d *DDmalloc) CodeSize() uint64 { return CodeSize }

// SupportsFree implements heap.Allocator: per-object free is the point.
func (d *DDmalloc) SupportsFree() bool { return true }

// SupportsFreeAll implements heap.Allocator.
func (d *DDmalloc) SupportsFreeAll() bool { return true }

// Stats implements heap.Allocator.
func (d *DDmalloc) Stats() heap.Stats { return d.stats }

// headAddr returns the simulated address of class c's free-list head.
func (d *DDmalloc) headAddr(c int) mem.Addr { return d.headsArr + mem.Addr(c*8) }

// classByteAddr returns the simulated address of segment i's class byte.
func (d *DDmalloc) classByteAddr(i int) mem.Addr { return d.classArr + mem.Addr(i) }

// isLarge reports whether a request bypasses the size classes: above half a
// segment (paper §3.2), or above the largest class the map covers when the
// segment size is tuned upward.
func (d *DDmalloc) isLarge(size uint64) bool {
	return size > d.opt.SegmentSize/2 || size > heap.MaxClassSize
}

// segIndexOf locates the segment containing p via alignment arithmetic
// (possible only because segments are size-aligned — the design that lets
// DDmalloc omit per-object headers).
func (d *DDmalloc) segIndexOf(p mem.Addr) int {
	segBase := p &^ mem.Addr(d.opt.SegmentSize-1)
	for ai, a := range d.arenas {
		if a.Contains(p) {
			return ai*d.opt.ArenaSegments + int((segBase-a.Base)/mem.Addr(d.opt.SegmentSize))
		}
	}
	panic(fmt.Sprintf("ddmalloc: address %#x outside every arena", p))
}

// Malloc implements heap.Allocator.
func (d *DDmalloc) Malloc(size uint64) heap.Ptr {
	if size == 0 {
		size = 1
	}
	d.env.RecordAlloc(size)
	d.stats.Mallocs++
	d.stats.BytesRequested += size
	if d.isLarge(size) {
		return d.mallocLarge(size)
	}
	cls := heap.SizeToClass(size)
	d.stats.BytesAllocated += heap.ClassSize(cls)
	d.env.Instr(costMallocFast, sim.ClassAlloc)

	// Check the free list for the class (one metadata read).
	d.env.Read(d.headAddr(cls), 8, sim.ClassAlloc)
	if p := d.free[cls].Pop(); p != 0 {
		// Pop: read the link word stored in the object, store the
		// new head.
		d.env.Read(p, 8, sim.ClassAlloc)
		d.env.Write(d.headAddr(cls), 8, sim.ClassAlloc)
		return p
	}
	return d.carve(cls)
}

// carve takes the next never-allocated object from the class's current
// segment, acquiring a segment if needed.
func (d *DDmalloc) carve(cls int) heap.Ptr {
	si := d.cur[cls]
	if si < 0 || d.segments[si].remaining == 0 {
		si = d.acquireSegment(cls)
		if si < 0 {
			return 0 // OOM: no segment available and no arena mappable
		}
		d.cur[cls] = si
	}
	seg := &d.segments[si]
	objSize := heap.ClassSize(cls)
	p := seg.bump

	d.env.Instr(costCarve, sim.ClassAlloc)
	// The count of unallocated objects lives at the top of the
	// unallocated area (paper Figure 3): read it here, rewrite it at the
	// next object.
	d.env.Read(p, 8, sim.ClassAlloc)
	seg.remaining--
	seg.bump += mem.Addr(objSize)
	if seg.remaining > 0 {
		d.env.Write(seg.bump, 8, sim.ClassAlloc)
	}
	return p
}

// acquireSegment obtains an unused segment and dedicates it to class cls,
// or returns -1 on OOM.
func (d *DDmalloc) acquireSegment(cls int) int {
	si := d.takeSegment()
	if si < 0 {
		return -1
	}
	seg := &d.segments[si]
	objSize := heap.ClassSize(cls)
	seg.class = int16(cls)
	seg.remaining = int(d.opt.SegmentSize / objSize)
	seg.bump = seg.base

	d.env.Instr(costNewSeg, sim.ClassAlloc)
	// Record the size class in the metadata array and seed the
	// unallocated count at the segment top.
	d.env.Write(d.classByteAddr(si), 1, sim.ClassAlloc)
	d.env.Write(seg.base, 8, sim.ClassAlloc)
	return si
}

// takeSegment returns an unused segment index, preferring recycled ones
// (warm), then fresh ones, mapping a new arena as a last resort. Returns
// -1 on OOM.
func (d *DDmalloc) takeSegment() int {
	if n := len(d.freeSegs); n > 0 {
		si := d.freeSegs[n-1]
		d.freeSegs = d.freeSegs[:n-1]
		d.usedSegs++
		if d.usedSegs > d.peakUsedSegs {
			d.peakUsedSegs = d.usedSegs
		}
		return si
	}
	if d.nextFresh >= len(d.segments) {
		if !d.addArena() {
			return -1
		}
	}
	si := d.nextFresh
	d.nextFresh++
	d.usedSegs++
	if d.usedSegs > d.peakUsedSegs {
		d.peakUsedSegs = d.usedSegs
	}
	return si
}

// mallocLarge serves objects bigger than half a segment by dedicating a run
// of contiguous segments, marked in the class array (paper §3.2).
func (d *DDmalloc) mallocLarge(size uint64) heap.Ptr {
	nSegs := int((size + d.opt.SegmentSize - 1) / d.opt.SegmentSize)
	d.stats.BytesAllocated += uint64(nSegs) * d.opt.SegmentSize
	d.env.Instr(costLarge, sim.ClassAlloc)

	var start int
	if runs := d.largeRuns[nSegs]; len(runs) > 0 {
		start = runs[len(runs)-1]
		d.largeRuns[nSegs] = runs[:len(runs)-1]
		d.usedSegs += nSegs
		if d.usedSegs > d.peakUsedSegs {
			d.peakUsedSegs = d.usedSegs
		}
	} else {
		// Fresh contiguous run; individual recycled segments cannot be
		// assumed adjacent.
		if d.nextFresh+nSegs > len(d.segments) {
			// Skip to freshly mapped whole arenas so the run is
			// contiguous (back-to-back mappings from the bump address
			// space); an object bigger than one arena takes several.
			// The leftover fresh segments stay available individually.
			newStart := len(d.segments)
			for len(d.segments) < newStart+nSegs {
				if !d.addArena() {
					// OOM: arenas already added stay as fresh
					// segments for future allocations.
					return 0
				}
			}
			for i := d.nextFresh; i < newStart; i++ {
				d.freeSegs = append(d.freeSegs, i)
			}
			d.nextFresh = newStart
		}
		start = d.nextFresh
		d.nextFresh += nSegs
		d.usedSegs += nSegs
		if d.usedSegs > d.peakUsedSegs {
			d.peakUsedSegs = d.usedSegs
		}
	}
	for i := 0; i < nSegs; i++ {
		d.segments[start+i].class = classLarge
		d.env.Write(d.classByteAddr(start+i), 1, sim.ClassAlloc)
	}
	p := d.segments[start].base
	d.large[p] = largeObj{startSeg: start, nSegs: nSegs}
	return p
}

// Free implements heap.Allocator: push the object onto its class's LIFO
// free list. No coalescing, no sorting — this is the entire free path.
func (d *DDmalloc) Free(p heap.Ptr) {
	if p == 0 {
		return
	}
	d.stats.Frees++
	if lo, ok := d.large[p]; ok {
		d.freeLarge(p, lo)
		return
	}
	si := d.segIndexOf(p)
	seg := &d.segments[si]
	if seg.class < 0 {
		panic(fmt.Sprintf("ddmalloc: free of %#x in unused segment %d", p, si))
	}
	cls := int(seg.class)

	d.env.Instr(costFree, sim.ClassAlloc)
	// Read the class byte, chain the object (write its link word), and
	// store the new head.
	d.env.Read(d.classByteAddr(si), 1, sim.ClassAlloc)
	d.env.Write(p, 8, sim.ClassAlloc)
	d.env.Write(d.headAddr(cls), 8, sim.ClassAlloc)
	d.free[cls].Push(p)
}

func (d *DDmalloc) freeLarge(p mem.Addr, lo largeObj) {
	d.env.Instr(costLarge, sim.ClassAlloc)
	for i := 0; i < lo.nSegs; i++ {
		d.segments[lo.startSeg+i].class = classUnused
		d.env.Write(d.classByteAddr(lo.startSeg+i), 1, sim.ClassAlloc)
	}
	d.largeRuns[lo.nSegs] = append(d.largeRuns[lo.nSegs], lo.startSeg)
	d.usedSegs -= lo.nSegs
	delete(d.large, p)
}

// Realloc implements heap.Allocator. A request that stays within the same
// size class is satisfied in place; otherwise allocate-copy-free.
func (d *DDmalloc) Realloc(p heap.Ptr, oldSize, newSize uint64) heap.Ptr {
	d.stats.Reallocs++
	if p == 0 {
		return d.Malloc(newSize)
	}
	if newSize > 0 && !d.isLarge(oldSize) && !d.isLarge(newSize) {
		si := d.segIndexOf(p)
		cls := int(d.segments[si].class)
		d.env.Instr(costReallocIP, sim.ClassAlloc)
		d.env.Read(d.classByteAddr(si), 1, sim.ClassAlloc)
		if cls >= 0 && heap.SizeToClass(newSize) == cls {
			return p
		}
	}
	np := d.Malloc(newSize)
	if np == 0 {
		return 0 // OOM: the old object stays valid (C realloc semantics)
	}
	n := oldSize
	if newSize < n {
		n = newSize
	}
	d.env.Copy(np, p, n, sim.ClassAlloc)
	d.Free(p)
	return np
}

// FreeAll implements heap.Allocator: reinitialize the metadata — and only
// the metadata. The heap contents are abandoned in place; every segment
// becomes unused and will be recarved (warm) by the next transaction.
func (d *DDmalloc) FreeAll() {
	d.stats.FreeAlls++
	touched := d.highestTouchedSeg()
	// Clearing the class-byte array and free-list heads is the whole
	// cost (paper: "the overhead of freeAll is almost negligible").
	d.env.Instr(costFreeAllFix+uint64(touched)/8, sim.ClassAlloc)
	d.env.Write(d.headsArr, heap.NumClasses*8, sim.ClassAlloc)
	if touched > 0 {
		d.env.Write(d.classArr, uint64(touched), sim.ClassAlloc)
	}

	for i := range d.free {
		d.free[i].Reset()
		d.cur[i] = -1
	}
	for i := 0; i < touched; i++ {
		d.segments[i].class = classUnused
		d.segments[i].remaining = 0
	}
	d.freeSegs = d.freeSegs[:0]
	d.largeRuns = make(map[int][]int)
	d.large = make(map[mem.Addr]largeObj)
	d.nextFresh = 0
	d.usedSegs = 0
}

// highestTouchedSeg returns how many low segment slots have ever been used
// since the last FreeAll (freeAll only needs to clear those bytes).
func (d *DDmalloc) highestTouchedSeg() int {
	n := d.nextFresh
	if n > len(d.segments) {
		n = len(d.segments)
	}
	return n
}

// PeakFootprint implements heap.Allocator: allocated segments plus metadata
// (the paper's Figure 9 definition for DDmalloc).
func (d *DDmalloc) PeakFootprint() uint64 {
	return uint64(d.peakUsedSegs)*d.opt.SegmentSize + d.metaBytes
}

// ResetPeak implements heap.Allocator.
func (d *DDmalloc) ResetPeak() { d.peakUsedSegs = d.usedSegs }

// UsedSegments reports the segments currently dedicated to a class or large
// object (for tests).
func (d *DDmalloc) UsedSegments() int { return d.usedSegs }

// SegmentClasses returns a snapshot of every segment's size class in heap
// order (-1 unused, -2 large object) — the simulated class-byte array, used
// by the heapmap visualizer.
func (d *DDmalloc) SegmentClasses() []int16 {
	out := make([]int16, len(d.segments))
	for i := range d.segments {
		out[i] = d.segments[i].class
	}
	return out
}
