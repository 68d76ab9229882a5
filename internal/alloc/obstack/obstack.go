// Package obstack models the GNU C library's obstack, the second
// region-style allocator the paper evaluated (§4.1): "We also evaluated the
// GNU obstack as another region-based allocator. However our own
// region-based allocator outperformed the obstack for the PHP applications."
//
// Obstacks allocate objects by bumping within modest chunks (4 KiB by
// default) linked into a list. Compared to the paper's 256 MB-chunk region
// allocator, the small chunks mean frequent chunk-boundary slow paths (map,
// link, header write) and a per-chunk header that costs locality; freeAll
// walks the chunk list. That overhead is why it loses to the plain region
// allocator, which this package exists to demonstrate (see the ablation
// bench).
package obstack

import (
	"webmm/internal/heap"
	"webmm/internal/mem"
	"webmm/internal/sim"
)

const (
	// DefaultChunkSize matches the glibc obstack default.
	DefaultChunkSize = 4096

	chunkHeader = 16 // next pointer + limit, as in glibc's struct _obstack_chunk

	costMalloc   = 8
	costNewChunk = 60
	costFreeAll  = 25 // plus per-chunk walking
	// CodeSize is the allocator's simulated code footprint. The
	// allocator registry reports it without constructing an allocator.
	CodeSize = 2 * mem.KiB
)

// Allocator is the obstack model.
type Allocator struct {
	env       *sim.Env
	chunkSize uint64

	chunks []mem.Mapping
	cur    int
	next   mem.Addr

	txnAllocated uint64
	peakTxn      uint64
	stats        heap.Stats
}

// New returns an obstack with the given chunk size (0 means the glibc
// default of 4 KiB).
func New(env *sim.Env, chunkSize uint64) *Allocator {
	if chunkSize == 0 {
		chunkSize = DefaultChunkSize
	}
	a := &Allocator{env: env, chunkSize: chunkSize}
	if !a.addChunk() {
		panic("obstack: cannot map initial chunk")
	}
	return a
}

// addChunk maps a fresh chunk, reporting false on OOM.
func (a *Allocator) addChunk() bool {
	c, err := a.env.AS.TryMap(a.chunkSize, 0, mem.SmallPages)
	if err != nil {
		return false
	}
	a.env.Instr(costNewChunk, sim.ClassAlloc)
	a.env.Instr(300, sim.ClassOS) // malloc/mmap for the chunk
	// Write the chunk header linking it to its predecessor.
	a.env.Write(c.Base, chunkHeader, sim.ClassAlloc)
	a.chunks = append(a.chunks, c)
	a.cur = len(a.chunks) - 1
	a.next = c.Base + chunkHeader
	return true
}

// Name implements heap.Allocator.
func (a *Allocator) Name() string { return "obstack" }

// CodeSize implements heap.Allocator.
func (a *Allocator) CodeSize() uint64 { return CodeSize }

// SupportsFree implements heap.Allocator.
func (a *Allocator) SupportsFree() bool { return false }

// SupportsFreeAll implements heap.Allocator.
func (a *Allocator) SupportsFreeAll() bool { return true }

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
	rounded := (size + 7) &^ 7
	a.stats.BytesAllocated += rounded

	a.env.Instr(costMalloc, sim.ClassAlloc)
	// Bump state lives in the obstack header of the current chunk.
	hdr := a.chunks[a.cur].Base
	a.env.Read(hdr, 16, sim.ClassAlloc)
	if a.next+mem.Addr(rounded) > a.chunks[a.cur].End() {
		if rounded+chunkHeader > a.chunkSize {
			// Oversized object: dedicated chunk, as glibc does.
			c, err := a.env.AS.TryMap(rounded+chunkHeader, 0, mem.SmallPages)
			if err != nil {
				return 0 // OOM
			}
			a.env.Instr(costNewChunk, sim.ClassAlloc)
			a.env.Instr(300, sim.ClassOS)
			a.env.Write(c.Base, chunkHeader, sim.ClassAlloc)
			// Keep bumping in the old chunk afterwards: insert the
			// dedicated chunk behind the current one.
			a.chunks = append(a.chunks[:a.cur], append([]mem.Mapping{c}, a.chunks[a.cur:]...)...)
			a.cur++
			a.bump(rounded)
			return c.Base + chunkHeader
		}
		if !a.addChunk() {
			return 0 // OOM
		}
		hdr = a.chunks[a.cur].Base
	}
	p := a.next
	a.next += mem.Addr(rounded)
	a.env.Write(hdr, 8, sim.ClassAlloc)
	a.bump(rounded)
	return p
}

func (a *Allocator) bump(rounded uint64) {
	a.txnAllocated += rounded
	if a.txnAllocated > a.peakTxn {
		a.peakTxn = a.txnAllocated
	}
}

// Free implements heap.Allocator as a no-op (region semantics).
func (a *Allocator) Free(p heap.Ptr) {
	if p == 0 {
		return
	}
	a.stats.Frees++
}

// Realloc implements heap.Allocator: move and copy, like any region.
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

// FreeAll implements heap.Allocator: walk the chunk list, releasing every
// chunk but the first (glibc's obstack_free(obstack, NULL) behaviour).
func (a *Allocator) FreeAll() {
	a.stats.FreeAlls++
	a.env.Instr(costFreeAll, sim.ClassAlloc)
	for i := len(a.chunks) - 1; i >= 1; i-- {
		// Read each header to find its predecessor, then unmap.
		a.env.Read(a.chunks[i].Base, chunkHeader, sim.ClassAlloc)
		a.env.Instr(20, sim.ClassAlloc)
		a.env.Instr(200, sim.ClassOS) // free/munmap
		a.env.AS.Unmap(a.chunks[i])
	}
	a.chunks = a.chunks[:1]
	a.cur = 0
	a.next = a.chunks[0].Base + chunkHeader
	a.txnAllocated = 0
}

// PeakFootprint implements heap.Allocator (region definition: bytes
// allocated during the transaction).
func (a *Allocator) PeakFootprint() uint64 { return a.peakTxn }

// ResetPeak implements heap.Allocator.
func (a *Allocator) ResetPeak() { a.peakTxn = a.txnAllocated }

// Chunks reports the chunks currently held.
func (a *Allocator) Chunks() int { return len(a.chunks) }
