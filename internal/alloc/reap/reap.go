// Package reap models Reaps (Berger, Zorn & McKinley, "Reconsidering
// custom memory allocation", OOPSLA 2002), which the paper's related-work
// section positions precisely against defrag-dodging:
//
//	"Like our defrag-dodging approach or the custom allocator in the PHP
//	runtime, it supports both per-object free and bulk free for all of
//	the objects in a region. In contrast to ours, their allocator acts in
//	almost the same way as Doug Lea's allocator for per-object free and
//	does not focus on improving the performances of the per-object free.
//	Thus the Reaps also pays cost of the defragmentation activities,
//	which is excessive for short-lived transactions in Web-based
//	applications, like the default allocator of the PHP runtime."
//
// The model follows the published design: a reap allocates by bumping
// through large chunks while no object has been freed; the first free
// flips the reap into "heap mode", where freed objects carry boundary
// tags and go to size-binned free lists that subsequent mallocs search
// best-fit (with splitting) before falling back to the bump pointer.
// freeAll discards everything and returns to pure bump mode.
//
// Reaps therefore sits exactly between the region allocator and the
// default allocator in the study's cost space — bulk free and fast bump
// allocation, but Lea-style defragmentation on the per-object free path —
// and the ablation bench shows it inheriting the worse of both on
// multicore: header traffic like the default, plus region-like streaming
// whenever the free lists cannot satisfy a request.
package reap

import (
	"fmt"

	"webmm/internal/heap"
	"webmm/internal/mem"
	"webmm/internal/sim"
)

const (
	// ChunkSize is the bump arena granule.
	ChunkSize = 8 * mem.MiB

	headerSize = 16 // Lea-style boundary tag on every object
	hugeCutoff = 1 * mem.MiB

	numBins = 64 // size-binned free lists: 8-byte classes then log2

	costBump    = 7  // bump-mode allocation
	costBinHit  = 22 // free-list allocation (search + unlink)
	costSplit   = 18
	costFree    = 26 // Lea-style free: header + bin insertion
	costBinHop  = 6
	costFreeAll = 30
	costHuge    = 60
	// CodeSize is the allocator's simulated code footprint. The
	// allocator registry reports it without constructing an allocator.
	CodeSize = 18 * mem.KiB
)

type object struct {
	addr mem.Addr
	size uint64 // payload size (rounded)
}

// Allocator is the Reap model.
type Allocator struct {
	env *sim.Env

	chunks []mem.Mapping
	next   mem.Addr

	// bins hold freed objects by size class; binArr is the simulated
	// address of the bin-head array.
	bins   [numBins][]object
	binArr mem.Addr
	binned int
	byAddr map[mem.Addr]uint64 // live payload -> rounded size
	huge   map[mem.Addr]mem.Mapping

	txnAllocated uint64
	peakTxn      uint64
	stats        heap.Stats
}

// New maps the first chunk and returns the reap.
func New(env *sim.Env) *Allocator {
	a := &Allocator{
		env:    env,
		byAddr: make(map[mem.Addr]uint64),
		huge:   make(map[mem.Addr]mem.Mapping),
	}
	meta := env.AS.Map(4*mem.KiB, 0, mem.SmallPages)
	a.binArr = meta.Base
	if !a.addChunk() {
		panic("reap: cannot map initial chunk")
	}
	return a
}

// addChunk maps a fresh bump chunk, reporting false on OOM.
func (a *Allocator) addChunk() bool {
	c, err := a.env.AS.TryMap(ChunkSize, 0, mem.SmallPages)
	if err != nil {
		return false
	}
	a.env.Instr(400, sim.ClassOS)
	a.chunks = append(a.chunks, c)
	a.next = c.Base
	return true
}

func binFor(size uint64) int {
	if size <= 256 {
		return int(size+7) / 8
	}
	b := 33
	for s := uint64(512); s < size && b < numBins-1; s <<= 1 {
		b++
	}
	return b
}

func (a *Allocator) binHeadAddr(i int) mem.Addr { return a.binArr + mem.Addr(i*8) }

// Name implements heap.Allocator.
func (a *Allocator) Name() string { return "reap" }

// CodeSize implements heap.Allocator.
func (a *Allocator) CodeSize() uint64 { return CodeSize }

// SupportsFree implements heap.Allocator.
func (a *Allocator) SupportsFree() bool { return true }

// SupportsFreeAll implements heap.Allocator.
func (a *Allocator) SupportsFreeAll() bool { return true }

// Stats implements heap.Allocator.
func (a *Allocator) Stats() heap.Stats { return a.stats }

// Malloc implements heap.Allocator: free-list best-fit when objects have
// been freed (the Lea-mode path, with its search and split costs),
// otherwise pure bump.
func (a *Allocator) Malloc(size uint64) heap.Ptr {
	if size == 0 {
		size = 1
	}
	a.env.RecordAlloc(size)
	a.stats.Mallocs++
	a.stats.BytesRequested += size
	rounded := (size + 7) &^ 7
	if rounded >= hugeCutoff {
		return a.mallocHuge(size)
	}
	a.stats.BytesAllocated += rounded + headerSize

	if a.binned > 0 {
		if p := a.searchBins(rounded); p != 0 {
			a.byAddr[p] = rounded
			a.bump(rounded + headerSize)
			return p
		}
	}
	// Bump mode: write the boundary tag, hand out the payload.
	a.env.Instr(costBump, sim.ClassAlloc)
	if a.next+mem.Addr(rounded+headerSize) > a.chunks[len(a.chunks)-1].End() {
		if !a.addChunk() {
			return 0 // OOM
		}
	}
	a.env.Write(a.next, headerSize, sim.ClassAlloc)
	p := a.next + headerSize
	a.next += mem.Addr(rounded + headerSize)
	a.byAddr[p] = rounded
	a.bump(rounded + headerSize)
	return p
}

// searchBins does the Lea-style best-fit over the size bins.
func (a *Allocator) searchBins(rounded uint64) heap.Ptr {
	for i := binFor(rounded); i < numBins; i++ {
		if len(a.bins[i]) == 0 {
			continue
		}
		a.env.Instr(costBinHit, sim.ClassAlloc)
		a.env.Read(a.binHeadAddr(i), 8, sim.ClassAlloc)
		// Walk the bin best-fit (bounded, like dlmalloc's bins).
		best := -1
		for k := 0; k < len(a.bins[i]) && k < 12; k++ {
			a.env.Instr(costBinHop, sim.ClassAlloc)
			a.env.Read(a.bins[i][k].addr-headerSize, headerSize, sim.ClassAlloc)
			if a.bins[i][k].size < rounded {
				continue
			}
			if best < 0 || a.bins[i][k].size < a.bins[i][best].size {
				best = k
			}
		}
		if best < 0 {
			continue
		}
		o := a.bins[i][best]
		a.bins[i] = append(a.bins[i][:best], a.bins[i][best+1:]...)
		a.binned--
		// Split the remainder back into a bin.
		if o.size >= rounded+headerSize+16 {
			a.env.Instr(costSplit, sim.ClassAlloc)
			rest := object{
				addr: o.addr + mem.Addr(rounded+headerSize),
				size: o.size - rounded - headerSize,
			}
			a.env.Write(rest.addr-headerSize, headerSize, sim.ClassAlloc)
			bi := binFor(rest.size)
			a.bins[bi] = append(a.bins[bi], rest)
			a.env.Write(a.binHeadAddr(bi), 8, sim.ClassAlloc)
			a.binned++
		}
		a.env.Write(o.addr-headerSize, headerSize, sim.ClassAlloc)
		return o.addr
	}
	return 0
}

func (a *Allocator) bump(n uint64) {
	a.txnAllocated += n
	if a.txnAllocated > a.peakTxn {
		a.peakTxn = a.txnAllocated
	}
}

// Free implements heap.Allocator: the Lea-mode path — read the boundary
// tag, thread the object into its size bin.
func (a *Allocator) Free(p heap.Ptr) {
	if p == 0 {
		return
	}
	a.stats.Frees++
	if m, ok := a.huge[p]; ok {
		a.env.Instr(costHuge, sim.ClassAlloc)
		a.env.Instr(300, sim.ClassOS)
		a.env.AS.Unmap(m)
		delete(a.huge, p)
		return
	}
	size, ok := a.byAddr[p]
	if !ok {
		panic(fmt.Sprintf("reap: free of unknown payload %#x", p))
	}
	delete(a.byAddr, p)
	a.env.Instr(costFree, sim.ClassAlloc)
	a.env.Read(p-headerSize, headerSize, sim.ClassAlloc)
	a.env.Write(p, 16, sim.ClassAlloc) // bin links in the payload
	bi := binFor(size)
	a.bins[bi] = append(a.bins[bi], object{addr: p, size: size})
	a.env.Write(a.binHeadAddr(bi), 8, sim.ClassAlloc)
	a.binned++
}

// Realloc implements heap.Allocator.
func (a *Allocator) Realloc(p heap.Ptr, oldSize, newSize uint64) heap.Ptr {
	a.stats.Reallocs++
	if p == 0 {
		return a.Malloc(newSize)
	}
	if cur, ok := a.byAddr[p]; ok {
		a.env.Instr(14, sim.ClassAlloc)
		a.env.Read(p-headerSize, headerSize, sim.ClassAlloc)
		if (newSize+7)&^7 <= cur {
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

// FreeAll implements heap.Allocator: discard the whole reap — reset the
// bump pointer and clear the bins (back to pure bump mode).
func (a *Allocator) FreeAll() {
	a.stats.FreeAlls++
	a.env.Instr(costFreeAll, sim.ClassAlloc)
	a.env.Write(a.binArr, numBins*8, sim.ClassAlloc)
	for i := range a.bins {
		a.bins[i] = a.bins[i][:0]
	}
	a.binned = 0
	a.byAddr = make(map[mem.Addr]uint64)
	for p, m := range a.huge {
		a.env.Instr(300, sim.ClassOS)
		a.env.AS.Unmap(m)
		delete(a.huge, p)
	}
	a.next = a.chunks[0].Base
	a.txnAllocated = 0
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
	a.env.Write(m.Base, headerSize, sim.ClassAlloc)
	p := m.Base + headerSize
	a.huge[p] = m
	a.bump(rounded)
	return p
}

// PeakFootprint implements heap.Allocator (region-style accounting: bytes
// allocated during the transaction, since the reap reuses only what its
// bins catch).
func (a *Allocator) PeakFootprint() uint64 { return a.peakTxn }

// ResetPeak implements heap.Allocator.
func (a *Allocator) ResetPeak() { a.peakTxn = a.txnAllocated }

// BinnedObjects reports the objects currently parked in bins (for tests).
func (a *Allocator) BinnedObjects() int { return a.binned }
