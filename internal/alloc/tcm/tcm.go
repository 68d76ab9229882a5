// Package tcm models TCmalloc (google-perf-tools 0.9.1), the strongest
// general-purpose competitor in the paper's Ruby study (§4.4).
//
// TCmalloc's fast path is nearly as lean as DDmalloc's: a per-thread cache
// of LIFO free lists per size class, popped and pushed with no locking and
// no coalescing. The paper's point (§3.2) is that TCmalloc *delays* rather
// than eliminates defragmentation: "TCmalloc reduces the overhead by
// delaying the defragmentation activities until the total size of the
// memory objects in the free lists exceeds a threshold. However TCmalloc
// still has costs for the delayed defragmentation activities and the costs
// matter for the overall performance." This model reproduces exactly that:
// when the thread cache exceeds its byte threshold, a scavenge pass walks
// half of every over-long list back to the central spans, touching every
// released object and the span bookkeeping; empty spans coalesce back into
// the page heap.
package tcm

import (
	"fmt"

	"webmm/internal/heap"
	"webmm/internal/mem"
	"webmm/internal/sim"
)

const (
	// SpanPages * pageSize is the unit central lists carve objects from.
	pageSize  = 8 * mem.KiB
	spanPages = 4
	spanSize  = spanPages * pageSize

	largeCutoff = 32 * mem.KiB // above this, page-heap allocation

	// cacheLimit is the thread-cache byte threshold that triggers the
	// scavenge (TCmalloc's per-thread 2 MB default).
	cacheLimit = 2 * mem.MiB

	batchSize = 32 // objects moved between thread cache and central list

	costMallocFast = 15
	costFreeFast   = 13
	costBatchFetch = 60
	costScavenge   = 120 // fixed part of a scavenge pass
	costPerRelease = 10  // per object returned to central
	costSpanOp     = 45
	costLarge      = 70

	// CodeSize is the allocator's simulated code footprint. The
	// allocator registry reports it without constructing an allocator.
	CodeSize = 16 * mem.KiB
)

type span struct {
	base    mem.Addr
	class   int
	live    int
	objects heap.FreeList
	carved  int
	cap     int
}

// Allocator is the TCmalloc model.
type Allocator struct {
	env *sim.Env

	// Thread cache: per-class LIFO lists plus the byte total that
	// triggers scavenging.
	cache      [heap.NumClasses]heap.FreeList
	cacheBytes uint64

	// Central lists: spans per class with available objects.
	central [heap.NumClasses][]*span
	byBase  map[mem.Addr]*span // span lookup by page-aligned base
	large   map[mem.Addr]mem.Mapping

	mappedBytes uint64
	peakMapped  uint64
	stats       heap.Stats
}

// New returns a TCmalloc-model heap.
func New(env *sim.Env) *Allocator {
	return &Allocator{
		env:    env,
		byBase: make(map[mem.Addr]*span),
		large:  make(map[mem.Addr]mem.Mapping),
	}
}

// Name implements heap.Allocator.
func (a *Allocator) Name() string { return "TCmalloc" }

// CodeSize implements heap.Allocator.
func (a *Allocator) CodeSize() uint64 { return CodeSize }

// SupportsFree implements heap.Allocator.
func (a *Allocator) SupportsFree() bool { return true }

// SupportsFreeAll implements heap.Allocator.
func (a *Allocator) SupportsFreeAll() bool { return false }

// FreeAll implements heap.Allocator by panicking.
func (a *Allocator) FreeAll() { panic("tcm: TCmalloc has no freeAll") }

// Stats implements heap.Allocator.
func (a *Allocator) Stats() heap.Stats { return a.stats }

// Malloc implements heap.Allocator: thread-cache pop, refilling from the
// central spans in batches.
func (a *Allocator) Malloc(size uint64) heap.Ptr {
	if size == 0 {
		size = 1
	}
	a.env.RecordAlloc(size)
	a.stats.Mallocs++
	a.stats.BytesRequested += size
	if size > largeCutoff || size > heap.MaxClassSize {
		return a.mallocLarge(size)
	}
	cls := heap.SizeToClass(size)
	objSize := heap.ClassSize(cls)
	a.stats.BytesAllocated += objSize
	a.env.Instr(costMallocFast, sim.ClassAlloc)

	if p := a.cache[cls].Pop(); p != 0 {
		a.env.Read(p, 8, sim.ClassAlloc) // link word
		a.cacheBytes -= objSize
		return p
	}
	a.fetchBatch(cls, objSize)
	p := a.cache[cls].Pop()
	if p == 0 {
		return 0 // OOM: the page heap could not produce a span
	}
	a.env.Read(p, 8, sim.ClassAlloc)
	a.cacheBytes -= objSize
	return p
}

// fetchBatch moves up to batchSize objects from the central list (carving a
// new span if needed) into the thread cache.
func (a *Allocator) fetchBatch(cls int, objSize uint64) {
	a.env.Instr(costBatchFetch, sim.ClassAlloc)
	moved := 0
	for moved < batchSize {
		sp := a.centralSpan(cls, objSize)
		if sp == nil {
			return // OOM: deliver whatever was already moved
		}
		for moved < batchSize {
			var p heap.Ptr
			if p = sp.objects.Pop(); p == 0 {
				if sp.carved < sp.cap {
					p = sp.base + mem.Addr(uint64(sp.carved)*objSize)
					sp.carved++
				} else {
					break
				}
			} else {
				a.env.Read(p, 8, sim.ClassAlloc)
			}
			sp.live++
			a.cache[cls].Push(p)
			a.env.Write(p, 8, sim.ClassAlloc) // thread-cache link
			a.cacheBytes += objSize
			moved++
		}
	}
}

// centralSpan returns a span of cls with objects available, mapping one from
// the page heap if necessary; nil means the page heap is out of memory.
func (a *Allocator) centralSpan(cls int, objSize uint64) *span {
	for _, sp := range a.central[cls] {
		if sp.objects.Len() > 0 || sp.carved < sp.cap {
			return sp
		}
	}
	a.env.Instr(costSpanOp, sim.ClassAlloc)
	m, err := a.env.AS.TryMap(spanSize, pageSize, mem.SmallPages)
	if err != nil {
		return nil
	}
	a.env.Instr(400, sim.ClassOS)
	a.mappedBytes += m.Size
	if a.mappedBytes > a.peakMapped {
		a.peakMapped = a.mappedBytes
	}
	sp := &span{base: m.Base, class: cls, cap: int(spanSize / objSize)}
	if sp.cap == 0 {
		panic(fmt.Sprintf("tcm: class %d too big for a span", cls))
	}
	// Record the span in the page map (one write per page).
	for pg := uint64(0); pg < spanPages; pg++ {
		a.byBase[m.Base+mem.Addr(pg*pageSize)] = sp
	}
	a.env.Write(m.Base, 16, sim.ClassAlloc)
	a.central[cls] = append(a.central[cls], sp)
	return sp
}

// Free implements heap.Allocator: thread-cache push; scavenge past the
// threshold.
func (a *Allocator) Free(p heap.Ptr) {
	if p == 0 {
		return
	}
	a.stats.Frees++
	if m, ok := a.large[p]; ok {
		a.env.Instr(costLarge, sim.ClassAlloc)
		a.env.Instr(300, sim.ClassOS)
		a.mappedBytes -= m.Size
		a.env.AS.Unmap(m)
		delete(a.large, p)
		return
	}
	sp := a.spanOf(p)
	cls := sp.class
	objSize := heap.ClassSize(cls)
	a.env.Instr(costFreeFast, sim.ClassAlloc)
	a.env.Write(p, 8, sim.ClassAlloc) // link word
	a.cache[cls].Push(p)
	a.cacheBytes += objSize
	sp.live-- // tracked Go-side; the modelled touch happens at scavenge

	if a.cacheBytes > cacheLimit {
		a.scavenge()
	}
}

func (a *Allocator) spanOf(p heap.Ptr) *span {
	base := p &^ mem.Addr(pageSize-1)
	sp, ok := a.byBase[base]
	if !ok {
		panic(fmt.Sprintf("tcm: free of %#x outside any span", p))
	}
	return sp
}

// scavenge returns half of every thread-cache list to the central spans —
// the delayed defragmentation pass. Each released object is touched (link
// rewrite) and span bookkeeping is updated.
func (a *Allocator) scavenge() {
	a.env.Instr(costScavenge, sim.ClassAlloc)
	for cls := range a.cache {
		release := a.cache[cls].Len() / 2
		if release == 0 {
			continue
		}
		objSize := heap.ClassSize(cls)
		for i := 0; i < release; i++ {
			p := a.cache[cls].PopTail() // oldest first
			a.env.Instr(costPerRelease, sim.ClassAlloc)
			a.env.Read(p, 8, sim.ClassAlloc)
			a.env.Write(p, 8, sim.ClassAlloc) // central list link
			sp := a.spanOf(p)
			sp.objects.Push(p)
			a.env.Write(sp.base, 8, sim.ClassAlloc) // span counters
			a.cacheBytes -= objSize
		}
	}
}

func (a *Allocator) mallocLarge(size uint64) heap.Ptr {
	rounded := mem.RoundUp(size, pageSize)
	a.stats.BytesAllocated += rounded
	a.env.Instr(costLarge, sim.ClassAlloc)
	a.env.Instr(400, sim.ClassOS)
	m, err := a.env.AS.TryMap(rounded, 0, mem.SmallPages)
	if err != nil {
		return 0 // OOM
	}
	a.mappedBytes += m.Size
	if a.mappedBytes > a.peakMapped {
		a.peakMapped = a.mappedBytes
	}
	a.large[m.Base] = m
	return m.Base
}

// Realloc implements heap.Allocator.
func (a *Allocator) Realloc(p heap.Ptr, oldSize, newSize uint64) heap.Ptr {
	a.stats.Reallocs++
	if p == 0 {
		return a.Malloc(newSize)
	}
	if _, isLarge := a.large[p]; !isLarge && newSize > 0 && newSize <= heap.MaxClassSize &&
		oldSize > 0 && oldSize <= heap.MaxClassSize {
		a.env.Instr(14, sim.ClassAlloc)
		if heap.SizeToClass(newSize) == heap.SizeToClass(oldSize) {
			return p
		}
	}
	np := a.Malloc(newSize)
	if np == 0 {
		return 0 // OOM: the old object stays valid (C realloc semantics)
	}
	n := oldSize
	if newSize < n {
		n = newSize
	}
	a.env.Copy(np, p, n, sim.ClassAlloc)
	a.Free(p)
	return np
}

// PeakFootprint implements heap.Allocator.
func (a *Allocator) PeakFootprint() uint64 { return a.peakMapped }

// ResetPeak implements heap.Allocator.
func (a *Allocator) ResetPeak() { a.peakMapped = a.mappedBytes }

// CacheBytes reports the current thread-cache size (for tests).
func (a *Allocator) CacheBytes() uint64 { return a.cacheBytes }
