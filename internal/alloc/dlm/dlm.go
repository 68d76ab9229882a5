// Package dlm models glibc's ptmalloc/dlmalloc — "an allocator by Doug Lea
// ... which sorts all of the objects in the free lists in order of their
// size to easily find the best object to allocate for a request, coalesces
// multiple small objects into large objects, and splits large objects into
// small objects in response to requests" (paper §2.2). It is the baseline
// of the paper's Ruby study (§4.4, glibc-2.5).
//
// The model keeps dlmalloc's architecture and therefore its cost structure:
//
//   - boundary-tagged chunks with an 8-byte header (16 bytes effective
//     overhead for free-list links) carved from sbrk-style arenas;
//   - *fastbins*: tiny chunks are freed to LIFO bins without coalescing —
//     cheap, but only a deferral: malloc_consolidate later drains them,
//     coalescing every deferred chunk in one expensive sweep;
//   - an *unsorted bin*: ordinary frees coalesce with neighbours
//     immediately and park in the unsorted bin; each subsequent malloc
//     walks it, sorting chunks into their real bins (size-sorted insertion
//     for large bins — a pointer chase per list hop);
//   - best-fit searches over the binned chunks, with splitting.
//
// All of that is the defragmentation work DDmalloc dodges.
package dlm

import (
	"fmt"

	"webmm/internal/heap"
	"webmm/internal/mem"
	"webmm/internal/sim"
)

const (
	arenaIncrement = mem.MiB // sbrk growth granule

	headerSize = 8
	minChunk   = 32

	fastbinMax  = 160 // chunks at or below free to fastbins
	numFastbins = fastbinMax / 8

	smallMax     = 1008
	numSmallBins = smallMax / 8
	numLargeBins = 8
	hugeCutoff   = 128 * mem.KiB // mmap threshold

	// consolidateAt drains fastbins once this many chunks accumulate
	// (glibc uses a byte threshold; a count keeps the model simple and
	// preserves the periodic-sweep behaviour).
	consolidateAt = 64

	costMallocFast  = 30
	costFastbinPush = 14
	costFastbinPop  = 16
	costUnsortedHop = 18
	costSortedHop   = 9
	costSplit       = 26
	costMerge       = 26
	costFreeBase    = 30
	costConsolidate = 40 // fixed part; per-chunk costs add up
	costHuge        = 70

	// CodeSize is the allocator's simulated code footprint. The
	// allocator registry reports it without constructing an allocator.
	CodeSize = 24 * mem.KiB
)

type chunk struct {
	addr mem.Addr
	size uint64
	free bool

	prevAdj, nextAdj *chunk

	// bin list links while free.
	binPrev, binNext *chunk
	bin              int // -1: unsorted, -2: fastbin, >=0: small/large bin
}

const (
	binUnsorted = -1
	binFast     = -2
)

// Allocator is the glibc model.
type Allocator struct {
	env *sim.Env

	arenas []mem.Mapping
	top    *chunk // the wilderness chunk of the newest arena

	fastbins [numFastbins]heap.FreeList
	fastMeta map[mem.Addr]*chunk // chunk records parked in fastbins
	nFast    int

	unsorted []*chunk
	bins     [numSmallBins + numLargeBins]*chunk
	binArr   mem.Addr

	byPayload map[mem.Addr]*chunk
	huge      map[mem.Addr]mem.Mapping

	mappedBytes uint64
	peakMapped  uint64
	stats       heap.Stats
}

// New returns a glibc-model heap with its first arena mapped.
func New(env *sim.Env) *Allocator {
	a := &Allocator{
		env:       env,
		fastMeta:  make(map[mem.Addr]*chunk),
		byPayload: make(map[mem.Addr]*chunk),
		huge:      make(map[mem.Addr]mem.Mapping),
	}
	meta := env.AS.Map(4*mem.KiB, 0, mem.SmallPages)
	a.binArr = meta.Base
	a.mappedBytes = meta.Size
	if !a.grow() {
		panic("dlm: cannot map initial arena")
	}
	a.peakMapped = a.mappedBytes
	return a
}

// grow extends the heap by one arena increment, creating a fresh top chunk.
// It reports false when the address space refuses (OOM).
func (a *Allocator) grow() bool {
	m, err := a.env.AS.TryMap(arenaIncrement, 0, mem.SmallPages)
	if err != nil {
		return false
	}
	a.env.Instr(400, sim.ClassOS)
	a.mappedBytes += m.Size
	if a.mappedBytes > a.peakMapped {
		a.peakMapped = a.mappedBytes
	}
	a.arenas = append(a.arenas, m)
	a.top = &chunk{addr: m.Base, size: m.Size, free: true, bin: binUnsorted}
	a.env.Write(a.top.addr, headerSize, sim.ClassAlloc)
	return true
}

func binFor(size uint64) int {
	if size <= smallMax {
		b := int(size/8) - 1
		if b < 0 {
			b = 0
		}
		return b
	}
	b := numSmallBins
	for s := uint64(smallMax) * 2; s < size && b < numSmallBins+numLargeBins-1; s <<= 1 {
		b++
	}
	return b
}

func (a *Allocator) binHeadAddr(i int) mem.Addr { return a.binArr + mem.Addr(i*8) }

// Name implements heap.Allocator.
func (a *Allocator) Name() string { return "glibc" }

// CodeSize implements heap.Allocator.
func (a *Allocator) CodeSize() uint64 { return CodeSize }

// SupportsFree implements heap.Allocator.
func (a *Allocator) SupportsFree() bool { return true }

// SupportsFreeAll implements heap.Allocator: glibc has no bulk free — this
// is exactly why the paper's Ruby study restarts processes instead.
func (a *Allocator) SupportsFreeAll() bool { return false }

// FreeAll implements heap.Allocator by panicking; callers must check
// SupportsFreeAll.
func (a *Allocator) FreeAll() { panic("dlm: glibc malloc has no freeAll") }

// Stats implements heap.Allocator.
func (a *Allocator) Stats() heap.Stats { return a.stats }

// Malloc implements heap.Allocator.
func (a *Allocator) Malloc(size uint64) heap.Ptr {
	if size == 0 {
		size = 1
	}
	a.env.RecordAlloc(size)
	a.stats.Mallocs++
	a.stats.BytesRequested += size
	trueSize := (size + headerSize + 7) &^ 7
	if trueSize < minChunk {
		trueSize = minChunk
	}
	if trueSize >= hugeCutoff {
		return a.mallocHuge(size)
	}
	a.stats.BytesAllocated += trueSize
	a.env.Instr(costMallocFast, sim.ClassAlloc)

	// Fastbin hit: the cheap path glibc takes for hot small sizes.
	if trueSize <= fastbinMax {
		fb := int(trueSize/8) - 1
		if p := a.fastbins[fb].Pop(); p != 0 {
			a.env.Instr(costFastbinPop, sim.ClassAlloc)
			a.env.Read(p, 8, sim.ClassAlloc) // link word
			c := a.fastMeta[p]
			delete(a.fastMeta, p)
			c.free = false
			a.byPayload[p] = c
			return p
		}
	}

	// Drain the unsorted bin: every chunk gets inspected and either
	// used (exact fit) or sorted into its bin.
	var hit *chunk
	for len(a.unsorted) > 0 {
		c := a.unsorted[0]
		a.unsorted = a.unsorted[1:]
		a.env.Instr(costUnsortedHop, sim.ClassAlloc)
		a.env.Read(c.addr, headerSize, sim.ClassAlloc)
		if hit == nil && c.size >= trueSize && c.size < trueSize+minChunk {
			hit = c // exact-enough fit: take it immediately
			break
		}
		a.enbin(c)
	}
	if hit == nil {
		hit = a.searchBins(trueSize)
	}
	if hit == nil {
		if hit = a.carveTop(trueSize); hit == nil {
			return 0 // OOM
		}
	}
	// Split the remainder back to the unsorted bin.
	if hit.size >= trueSize+minChunk {
		a.env.Instr(costSplit, sim.ClassAlloc)
		rest := &chunk{
			addr:    hit.addr + mem.Addr(trueSize),
			size:    hit.size - trueSize,
			free:    true,
			bin:     binUnsorted,
			prevAdj: hit,
			nextAdj: hit.nextAdj,
		}
		if hit.nextAdj != nil {
			hit.nextAdj.prevAdj = rest
			a.env.Write(hit.nextAdj.addr, 8, sim.ClassAlloc)
		}
		hit.nextAdj = rest
		hit.size = trueSize
		a.env.Write(rest.addr, headerSize, sim.ClassAlloc)
		a.unsorted = append(a.unsorted, rest)
	}
	hit.free = false
	a.env.Write(hit.addr, headerSize, sim.ClassAlloc)
	p := hit.addr + headerSize
	a.byPayload[p] = hit
	return p
}

// enbin sorts a chunk into its small or large bin. Large bins keep chunks
// size-sorted, costing one header read per hop — dlmalloc's signature
// "sorts all of the objects in the free lists".
func (a *Allocator) enbin(c *chunk) {
	i := binFor(c.size)
	c.bin = i
	a.env.Read(a.binHeadAddr(i), 8, sim.ClassAlloc)
	if i >= numSmallBins {
		// Sorted insertion.
		var prev *chunk
		for cur := a.bins[i]; cur != nil && cur.size < c.size; cur = cur.binNext {
			a.env.Instr(costSortedHop, sim.ClassAlloc)
			a.env.Read(cur.addr, headerSize, sim.ClassAlloc)
			prev = cur
		}
		if prev == nil {
			c.binNext = a.bins[i]
			if a.bins[i] != nil {
				a.bins[i].binPrev = c
				a.env.Write(a.bins[i].addr+headerSize, 8, sim.ClassAlloc)
			}
			a.bins[i] = c
			a.env.Write(a.binHeadAddr(i), 8, sim.ClassAlloc)
		} else {
			c.binNext = prev.binNext
			c.binPrev = prev
			if prev.binNext != nil {
				prev.binNext.binPrev = c
				a.env.Write(prev.binNext.addr+headerSize, 8, sim.ClassAlloc)
			}
			prev.binNext = c
			a.env.Write(prev.addr+headerSize, 8, sim.ClassAlloc)
		}
	} else {
		c.binNext = a.bins[i]
		if a.bins[i] != nil {
			a.bins[i].binPrev = c
			a.env.Write(a.bins[i].addr+headerSize, 8, sim.ClassAlloc)
		}
		a.bins[i] = c
		a.env.Write(a.binHeadAddr(i), 8, sim.ClassAlloc)
	}
	a.env.Write(c.addr+headerSize, 16, sim.ClassAlloc)
}

// unbin removes a chunk from its bin.
func (a *Allocator) unbin(c *chunk) {
	a.env.Read(c.addr+headerSize, 16, sim.ClassAlloc)
	if c.binPrev != nil {
		c.binPrev.binNext = c.binNext
		a.env.Write(c.binPrev.addr+headerSize, 8, sim.ClassAlloc)
	} else if c.bin >= 0 {
		a.bins[c.bin] = c.binNext
		a.env.Write(a.binHeadAddr(c.bin), 8, sim.ClassAlloc)
	}
	if c.binNext != nil {
		c.binNext.binPrev = c.binPrev
		a.env.Write(c.binNext.addr+headerSize, 8, sim.ClassAlloc)
	}
	c.binPrev, c.binNext = nil, nil
}

// searchBins best-fit searches the binned chunks.
func (a *Allocator) searchBins(trueSize uint64) *chunk {
	for i := binFor(trueSize); i < len(a.bins); i++ {
		if a.bins[i] == nil {
			continue
		}
		a.env.Read(a.binHeadAddr(i), 8, sim.ClassAlloc)
		for c := a.bins[i]; c != nil; c = c.binNext {
			a.env.Read(c.addr, headerSize, sim.ClassAlloc)
			a.env.Instr(costSortedHop, sim.ClassAlloc)
			if c.size >= trueSize {
				a.unbin(c)
				return c
			}
		}
	}
	return nil
}

// carveTop serves a request from the wilderness, growing it if needed; nil
// means the heap cannot grow (OOM).
func (a *Allocator) carveTop(trueSize uint64) *chunk {
	if a.top == nil || a.top.size < trueSize+minChunk {
		if !a.grow() {
			return nil
		}
	}
	c := &chunk{addr: a.top.addr, size: trueSize, free: true}
	a.top.addr += mem.Addr(trueSize)
	a.top.size -= trueSize
	c.nextAdj = a.top // top is always the next adjacent chunk
	// Note: adjacency links of carved chunks form a chain ending at top.
	if a.top.prevAdj != nil {
		// re-link: previous neighbour of top is now c's prev
		c.prevAdj = a.top.prevAdj
		c.prevAdj.nextAdj = c
	}
	a.top.prevAdj = c
	a.env.Write(c.addr, headerSize, sim.ClassAlloc)
	a.env.Write(a.top.addr, headerSize, sim.ClassAlloc)
	return c
}

func (a *Allocator) mallocHuge(size uint64) heap.Ptr {
	rounded := mem.RoundUp(size+headerSize, 4096)
	a.stats.BytesAllocated += rounded
	a.env.Instr(costHuge, sim.ClassAlloc)
	a.env.Instr(400, sim.ClassOS)
	m, err := a.env.AS.TryMap(rounded, 0, mem.SmallPages)
	if err != nil {
		return 0 // OOM
	}
	a.mappedBytes += m.Size
	if a.mappedBytes > a.peakMapped {
		a.peakMapped = a.mappedBytes
	}
	a.env.Write(m.Base, headerSize, sim.ClassAlloc)
	p := m.Base + headerSize
	a.huge[p] = m
	return p
}

// Free implements heap.Allocator.
func (a *Allocator) Free(p heap.Ptr) {
	if p == 0 {
		return
	}
	a.stats.Frees++
	if m, ok := a.huge[p]; ok {
		a.env.Instr(costHuge, sim.ClassAlloc)
		a.env.Instr(300, sim.ClassOS)
		a.mappedBytes -= m.Size
		a.env.AS.Unmap(m)
		delete(a.huge, p)
		return
	}
	c, ok := a.byPayload[p]
	if !ok {
		panic(fmt.Sprintf("dlm: free of unknown payload %#x", p))
	}
	delete(a.byPayload, p)
	a.env.Read(c.addr, headerSize, sim.ClassAlloc)

	// Fastbin path: defer the defragmentation.
	if c.size <= fastbinMax {
		a.env.Instr(costFastbinPush, sim.ClassAlloc)
		a.env.Write(p, 8, sim.ClassAlloc) // link word
		fb := int(c.size/8) - 1
		a.fastbins[fb].Push(p)
		a.fastMeta[p] = c
		a.nFast++
		if a.nFast >= consolidateAt {
			a.consolidate()
		}
		return
	}
	a.env.Instr(costFreeBase, sim.ClassAlloc)
	a.coalesce(c)
}

// coalesce merges c with free neighbours and parks it in the unsorted bin.
func (a *Allocator) coalesce(c *chunk) {
	c.free = true
	if n := c.nextAdj; n != nil && n != a.top {
		a.env.Read(n.addr, headerSize, sim.ClassAlloc)
		if n.free {
			a.env.Instr(costMerge, sim.ClassAlloc)
			a.removeFree(n)
			c.size += n.size
			c.nextAdj = n.nextAdj
			if n.nextAdj != nil {
				n.nextAdj.prevAdj = c
				a.env.Write(n.nextAdj.addr, 8, sim.ClassAlloc)
			}
		}
	}
	// PREV_INUSE bit: the previous chunk's header is only touched when
	// it is actually free and a merge happens.
	if pr := c.prevAdj; pr != nil {
		if pr.free && pr != a.top {
			a.env.Read(pr.addr, headerSize, sim.ClassAlloc)
			a.env.Instr(costMerge, sim.ClassAlloc)
			a.removeFree(pr)
			pr.size += c.size
			pr.nextAdj = c.nextAdj
			if c.nextAdj != nil {
				c.nextAdj.prevAdj = pr
				a.env.Write(c.nextAdj.addr, 8, sim.ClassAlloc)
			}
			c = pr
		}
	}
	c.free = true
	c.bin = binUnsorted
	a.env.Write(c.addr, headerSize, sim.ClassAlloc)
	a.env.Write(c.addr+headerSize, 16, sim.ClassAlloc)
	a.unsorted = append(a.unsorted, c)
}

// removeFree detaches a free chunk from whichever structure holds it.
func (a *Allocator) removeFree(c *chunk) {
	switch {
	case c.bin == binUnsorted:
		for i, u := range a.unsorted {
			if u == c {
				a.unsorted = append(a.unsorted[:i], a.unsorted[i+1:]...)
				break
			}
		}
		a.env.Read(c.addr+headerSize, 16, sim.ClassAlloc)
	case c.bin == binFast:
		// Fastbin chunks are not coalesced until consolidation; they
		// are never removed from here.
	default:
		a.unbin(c)
	}
}

// consolidate drains every fastbin, fully coalescing each deferred chunk —
// glibc's malloc_consolidate. This is the "delayed, not eliminated"
// defragmentation the paper contrasts with DDmalloc.
func (a *Allocator) consolidate() {
	a.env.Instr(costConsolidate, sim.ClassAlloc)
	for fb := range a.fastbins {
		for {
			p := a.fastbins[fb].Pop()
			if p == 0 {
				break
			}
			a.env.Read(p, 8, sim.ClassAlloc)
			c := a.fastMeta[p]
			delete(a.fastMeta, p)
			a.env.Instr(costFreeBase, sim.ClassAlloc)
			a.coalesce(c)
		}
	}
	a.nFast = 0
}

// Realloc implements heap.Allocator.
func (a *Allocator) Realloc(p heap.Ptr, oldSize, newSize uint64) heap.Ptr {
	a.stats.Reallocs++
	if p == 0 {
		return a.Malloc(newSize)
	}
	if c, ok := a.byPayload[p]; ok {
		trueSize := (newSize + headerSize + 7) &^ 7
		a.env.Instr(18, sim.ClassAlloc)
		a.env.Read(c.addr, headerSize, sim.ClassAlloc)
		if trueSize <= c.size && trueSize < hugeCutoff {
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
