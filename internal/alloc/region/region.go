// Package region implements the region-based (bump-pointer) allocator the
// paper uses as its main comparison point (§4.1).
//
// The allocator obtains a 256 MB chunk from the operating system at startup
// and serves every allocation by rounding the size to a multiple of 8 bytes
// and incrementing a pointer. There is no per-object free: dead objects'
// memory is never reused during a transaction, and freeAll reclaims
// everything at once by resetting the pointer to the chunk base. Additional
// chunks are mapped only if a transaction overflows 256 MB, which the paper
// notes was rare enough to make the system-call overhead negligible.
//
// The cost structure is the paper's Table 1 row two: lowest malloc/free
// cost, no defragmentation — but the highest bandwidth requirement, because
// every allocation during a transaction streams through fresh cache lines
// and dead lines are written back without ever being reused.
package region

import (
	"webmm/internal/heap"
	"webmm/internal/mem"
	"webmm/internal/sim"
)

const (
	// ChunkSize is the paper's 256 MB chunk.
	ChunkSize = 256 * mem.MiB

	costMalloc  = 5  // round + bump
	costFreeAll = 18 // reset pointer
	// CodeSize is the allocator's simulated code footprint. The
	// allocator registry reports it without constructing an allocator.
	CodeSize = 1 * mem.KiB
)

// Allocator is the region-based allocator.
type Allocator struct {
	env *sim.Env

	chunks []mem.Mapping
	cur    int      // index of the chunk being bumped
	next   mem.Addr // next allocation address
	// bumpAddr is the simulated location of the bump pointer itself (the
	// allocator's sole hot metadata word).
	bumpAddr mem.Addr

	txnAllocated uint64
	peakTxn      uint64
	stats        heap.Stats
}

// New maps the initial chunk and returns the allocator.
func New(env *sim.Env) *Allocator {
	a := &Allocator{env: env}
	meta := env.AS.Map(4*mem.KiB, 0, mem.SmallPages)
	a.bumpAddr = meta.Base
	if !a.addChunk() {
		panic("region: cannot map initial chunk")
	}
	return a
}

// addChunk maps a fresh chunk, reporting false on OOM.
func (a *Allocator) addChunk() bool {
	c, err := a.env.AS.TryMap(ChunkSize, 0, mem.SmallPages)
	if err != nil {
		return false
	}
	a.env.Instr(400, sim.ClassOS) // mmap syscall
	a.chunks = append(a.chunks, c)
	a.cur = len(a.chunks) - 1
	a.next = c.Base
	return true
}

// Name implements heap.Allocator.
func (a *Allocator) Name() string { return "region-based" }

// CodeSize implements heap.Allocator.
func (a *Allocator) CodeSize() uint64 { return CodeSize }

// SupportsFree implements heap.Allocator: regions have no per-object free.
func (a *Allocator) SupportsFree() bool { return false }

// SupportsFreeAll implements heap.Allocator.
func (a *Allocator) SupportsFreeAll() bool { return true }

// Stats implements heap.Allocator.
func (a *Allocator) Stats() heap.Stats { return a.stats }

// Malloc implements heap.Allocator: round to 8 bytes, bump, done.
func (a *Allocator) Malloc(size uint64) heap.Ptr {
	if size == 0 {
		size = 1
	}
	a.env.RecordAlloc(size)
	a.stats.Mallocs++
	a.stats.BytesRequested += size
	rounded := (size + 7) &^ 7
	a.stats.BytesAllocated += rounded

	a.env.Instr(costMalloc, sim.ClassAlloc)
	// The bump pointer is a single hot word: read, increment, write.
	a.env.Read(a.bumpAddr, 8, sim.ClassAlloc)
	if a.next+mem.Addr(rounded) > a.chunks[a.cur].End() {
		if !a.addChunk() {
			return 0 // OOM
		}
	}
	p := a.next
	a.next += mem.Addr(rounded)
	a.env.Write(a.bumpAddr, 8, sim.ClassAlloc)

	a.txnAllocated += rounded
	if a.txnAllocated > a.peakTxn {
		a.peakTxn = a.txnAllocated
	}
	return p
}

// Free implements heap.Allocator as a no-op: the paper's modification for
// region-based management removes the runtime's free calls entirely, so a
// stray call costs nothing and reclaims nothing.
func (a *Allocator) Free(p heap.Ptr) {
	if p == 0 {
		return
	}
	a.stats.Frees++
}

// Realloc implements heap.Allocator: regions cannot resize in place (the
// next object is already bump-allocated behind p), so always move and copy.
func (a *Allocator) Realloc(p heap.Ptr, oldSize, newSize uint64) heap.Ptr {
	a.stats.Reallocs++
	if p == 0 {
		return a.Malloc(newSize)
	}
	np := a.Malloc(newSize)
	if np == 0 {
		return 0 // OOM: the old object stays valid
	}
	n := oldSize
	if newSize < n {
		n = newSize
	}
	a.env.Copy(np, p, n, sim.ClassAlloc)
	return np
}

// FreeAll implements heap.Allocator: discard the whole region by resetting
// the bump pointer to the first chunk. Extra chunks stay mapped for reuse.
func (a *Allocator) FreeAll() {
	a.stats.FreeAlls++
	a.env.Instr(costFreeAll, sim.ClassAlloc)
	a.env.Write(a.bumpAddr, 8, sim.ClassAlloc)
	a.cur = 0
	a.next = a.chunks[0].Base
	a.txnAllocated = 0
}

// PeakFootprint implements heap.Allocator with the paper's Figure 9
// definition for regions: the total memory allocated during a transaction
// (dead objects are never reclaimed until freeAll, so they all count).
func (a *Allocator) PeakFootprint() uint64 { return a.peakTxn }

// ResetPeak implements heap.Allocator.
func (a *Allocator) ResetPeak() { a.peakTxn = a.txnAllocated }

// Chunks reports how many chunks have been mapped (the paper verifies one
// suffices for most transactions).
func (a *Allocator) Chunks() int { return len(a.chunks) }
