// Package zend models the default memory allocator of the PHP runtime — the
// paper's primary baseline ("the default allocator of the PHP runtime,
// developed by Zend Technologies", §2.2).
//
// It is a general-purpose allocator with bulk-free support (Table 1 row
// one): boundary-tagged blocks carved from 256 KiB segments, per-size
// bucket free lists, and the full set of defragmentation activities the
// paper's defrag-dodging approach eliminates —
//
//   - every block carries a 16-byte header (size + previous-block size +
//     flags), paid on every object in both space and cache lines;
//   - free coalesces with both neighbours when they are free, which costs
//     header reads of adjacent blocks and unlink writes in their buckets;
//   - malloc splits oversized blocks, writing a second header and inserting
//     the remainder into a bucket;
//   - bucket misses scan upward for the first fitting size.
//
// freeAll (PHP calls it at end of request) resets every segment to a single
// wilderness block and clears the buckets — cheap, but the paper's point is
// that the *per-call* defragmentation above still dominates, because PHP
// performs hundreds of thousands of malloc/free calls per transaction.
package zend

import (
	"fmt"

	"webmm/internal/heap"
	"webmm/internal/mem"
	"webmm/internal/sim"
)

const (
	// SegmentSize matches ZEND_MM_SEG_SIZE's 256 KiB default.
	SegmentSize = 256 * mem.KiB

	headerSize = 16
	// minSplit is the smallest remainder worth splitting off.
	minSplit = headerSize + 16

	// hugeCutoff routes very large requests straight to the OS.
	hugeCutoff = SegmentSize / 2

	// Buckets: one per 8 bytes up to smallMax, then one per power of two.
	smallMax     = 1024
	numSmall     = smallMax / 8
	numLogBucket = 6 // 2 KiB, 4 KiB, ... 64 KiB
	numBuckets   = numSmall + numLogBucket + 1

	// The fast cache (ZEND_MM_CACHE in PHP 5.2): freed small blocks park
	// on a per-size LIFO list and are handed back without touching the
	// boundary-tag structure. The defragmentation work is batched: when
	// the cache exceeds its byte budget it is flushed through the full
	// coalescing free path.
	cacheMaxSize   = 512 + headerSize // block sizes served by the cache
	numCacheLists  = cacheMaxSize / 8
	cacheByteLimit = 32 * mem.KiB

	// Instruction costs of the defragmenting paths.
	costMallocCache = 12
	costFreeCache   = 10
	costMallocFast  = 20
	costBucketScan  = 8
	costSplit       = 16
	costCarve       = 14
	costNewSegment  = 60
	costFreeBase    = 16
	costMerge       = 14
	costCacheFlush  = 60
	costFreeAllBase = 120
	costPerSegReset = 24
	costHuge        = 50

	// CodeSize is the allocator's simulated code footprint. The
	// allocator registry reports it without constructing an allocator.
	CodeSize = 20 * mem.KiB
)

// block mirrors one boundary-tagged block. The simulated header lives at
// addr; the payload at addr+headerSize.
type block struct {
	addr mem.Addr
	size uint64 // total block size including header
	free bool

	// Address-ordered neighbours within the segment.
	prevAdj, nextAdj *block

	// Bucket list links (valid while free).
	bucketPrev, bucketNext *block
	bucket                 int
}

// bucketWild marks a segment's wilderness (top) block, which is never
// enlisted in a bucket: like dlmalloc's top chunk it is carved only when no
// recycled block fits, so reuse always wins over fresh memory.
const bucketWild = -3

type segment struct {
	m mem.Mapping
	// first block (address order).
	first *block
	// wild is the segment's wilderness block (nil once exhausted).
	wild *block
}

// Allocator is the Zend-like default allocator.
type Allocator struct {
	env *sim.Env

	segments []*segment
	buckets  [numBuckets]*block
	// bucketArr is the simulated address of the bucket-head array.
	bucketArr mem.Addr

	byPayload *ptrmap
	huge      map[mem.Addr]mem.Mapping

	// Fast cache: per-exact-size LIFO lists of parked blocks. cacheArr
	// is the simulated address of the cache head array; cacheMeta keeps
	// the parked blocks' records.
	cache      [numCacheLists]heap.FreeList
	cacheArr   mem.Addr
	cacheMeta  *ptrmap
	cacheBytes uint64

	mappedBytes uint64
	peakMapped  uint64
	stats       heap.Stats
}

// New returns a heap with one segment mapped.
func New(env *sim.Env) *Allocator {
	a := &Allocator{
		env:       env,
		byPayload: newPtrmap(),
		huge:      make(map[mem.Addr]mem.Mapping),
		cacheMeta: newPtrmap(),
	}
	meta := env.AS.Map(8*mem.KiB, 0, mem.SmallPages)
	a.bucketArr = meta.Base
	a.cacheArr = meta.Base + numBuckets*8
	a.mappedBytes = meta.Size
	if a.addSegment() == nil {
		panic("zend: cannot map initial segment")
	}
	a.peakMapped = a.mappedBytes
	return a
}

// addSegment maps a fresh segment, or returns nil when the address space
// refuses (OOM propagates to the caller as a null pointer).
func (a *Allocator) addSegment() *segment {
	m, err := a.env.AS.TryMap(SegmentSize, 0, mem.SmallPages)
	if err != nil {
		return nil
	}
	a.env.Instr(costNewSegment, sim.ClassAlloc)
	a.env.Instr(400, sim.ClassOS)
	a.mappedBytes += m.Size
	if a.mappedBytes > a.peakMapped {
		a.peakMapped = a.mappedBytes
	}
	s := &segment{m: m}
	wilderness := &block{addr: m.Base, size: m.Size, free: true, bucket: bucketWild}
	s.first = wilderness
	s.wild = wilderness
	a.segments = append(a.segments, s)
	// Write the wilderness header; the top chunk stays out of the
	// buckets and is carved only as a last resort.
	a.env.Write(wilderness.addr, headerSize, sim.ClassAlloc)
	return s
}

// bucketFor maps a total block size to its bucket index.
func bucketFor(size uint64) int {
	if size <= smallMax {
		b := int(size/8) - 1
		if b < 0 {
			b = 0
		}
		return b
	}
	b := numSmall
	for s := uint64(smallMax) * 2; s < size; s <<= 1 {
		b++
		if b >= numBuckets-1 {
			break
		}
	}
	return b
}

// bucketHeadAddr is the simulated address of bucket i's head pointer.
func (a *Allocator) bucketHeadAddr(i int) mem.Addr { return a.bucketArr + mem.Addr(i*8) }

// cacheHeadAddr is the simulated address of fast-cache list i's head.
func (a *Allocator) cacheHeadAddr(i int) mem.Addr { return a.cacheArr + mem.Addr(i*8) }

// enlist pushes a free block onto its bucket (head insertion), emitting the
// list-pointer writes.
func (a *Allocator) enlist(b *block) {
	i := bucketFor(b.size)
	b.bucket = i
	b.bucketPrev = nil
	b.bucketNext = a.buckets[i]
	if a.buckets[i] != nil {
		a.buckets[i].bucketPrev = b
		// Patch the old head's prev pointer (in its payload).
		a.env.Write(a.buckets[i].addr+headerSize, 8, sim.ClassAlloc)
	}
	a.buckets[i] = b
	// Write the block's own list node and the bucket head.
	a.env.Write(b.addr+headerSize, 16, sim.ClassAlloc)
	a.env.Write(a.bucketHeadAddr(i), 8, sim.ClassAlloc)
}

// unlink removes a free block from its bucket, emitting the pointer
// surgery reads/writes.
func (a *Allocator) unlink(b *block) {
	a.env.Read(b.addr+headerSize, 16, sim.ClassAlloc)
	if b.bucketPrev != nil {
		b.bucketPrev.bucketNext = b.bucketNext
		a.env.Write(b.bucketPrev.addr+headerSize, 8, sim.ClassAlloc)
	} else {
		a.buckets[b.bucket] = b.bucketNext
		a.env.Write(a.bucketHeadAddr(b.bucket), 8, sim.ClassAlloc)
	}
	if b.bucketNext != nil {
		b.bucketNext.bucketPrev = b.bucketPrev
		a.env.Write(b.bucketNext.addr+headerSize, 8, sim.ClassAlloc)
	}
	b.bucketPrev, b.bucketNext = nil, nil
}

// carveWild takes trueSize bytes from the front of a segment's wilderness,
// mapping a new segment if none has room (dlmalloc's carve-from-top).
func (a *Allocator) carveWild(trueSize uint64) *block {
	var s *segment
	for _, cand := range a.segments {
		if cand.wild != nil && cand.wild.size >= trueSize+headerSize {
			s = cand
			break
		}
	}
	if s == nil {
		if s = a.addSegment(); s == nil {
			return nil
		}
	}
	w := s.wild
	a.env.Instr(costCarve, sim.ClassAlloc)
	a.env.Read(w.addr, headerSize, sim.ClassAlloc)
	b := &block{addr: w.addr, size: trueSize, free: true, prevAdj: w.prevAdj, nextAdj: w}
	if w.prevAdj != nil {
		w.prevAdj.nextAdj = b
	}
	if s.first == w {
		s.first = b
	}
	w.prevAdj = b
	w.addr += mem.Addr(trueSize)
	w.size -= trueSize
	a.env.Write(w.addr, headerSize, sim.ClassAlloc)
	return b
}

// Name implements heap.Allocator.
func (a *Allocator) Name() string { return "default" }

// CodeSize implements heap.Allocator.
func (a *Allocator) CodeSize() uint64 { return CodeSize }

// SupportsFree implements heap.Allocator.
func (a *Allocator) SupportsFree() bool { return true }

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
	trueSize := (size + headerSize + 7) &^ 7
	if trueSize >= hugeCutoff {
		return a.mallocHuge(size)
	}
	a.stats.BytesAllocated += trueSize

	// Fast-cache hit: a parked block of the exact size is handed back
	// with two touches and no boundary-tag work (PHP 5.2's
	// ZEND_MM_CACHE path).
	if trueSize <= cacheMaxSize {
		ci := int(trueSize/8) - 1
		a.env.Instr(costMallocCache, sim.ClassAlloc)
		a.env.Read(a.cacheHeadAddr(ci), 8, sim.ClassAlloc)
		if p := a.cache[ci].Pop(); p != 0 {
			a.env.Read(p, 8, sim.ClassAlloc) // link word
			b, _ := a.cacheMeta.take(p)
			a.cacheBytes -= b.size
			a.byPayload.put(p, b)
			return p
		}
	}
	a.env.Instr(costMallocFast, sim.ClassAlloc)

	// Best-fit search: the bucket bitmap (one word read) locates the
	// first non-empty bucket at or above the exact one. Small buckets
	// hold a single size, so their head is the best fit; the coarse
	// upper buckets are walked best-fit (smallest block, then lowest
	// address) over a bounded number of candidates, as real
	// defragmenting allocators do.
	start := bucketFor(trueSize)
	var b *block
	for i := start; i < numBuckets; i++ {
		if a.buckets[i] == nil {
			continue
		}
		a.env.Instr(costBucketScan, sim.ClassAlloc)
		a.env.Read(a.bucketHeadAddr(i), 8, sim.ClassAlloc)
		if i < numSmall {
			if cand := a.buckets[i]; cand.size >= trueSize {
				a.env.Read(cand.addr, headerSize, sim.ClassAlloc)
				b = cand
				break
			}
			continue
		}
		scanned := 0
		for cand := a.buckets[i]; cand != nil && scanned < 16; cand = cand.bucketNext {
			a.env.Read(cand.addr, headerSize, sim.ClassAlloc)
			a.env.Instr(4, sim.ClassAlloc)
			scanned++
			if cand.size < trueSize {
				continue
			}
			if b == nil || cand.size < b.size || (cand.size == b.size && cand.addr < b.addr) {
				b = cand
			}
		}
		if b != nil {
			break
		}
	}
	if b == nil {
		if b = a.carveWild(trueSize); b == nil {
			return 0 // OOM
		}
	} else {
		a.unlink(b)
	}
	// Split if the remainder is worth keeping.
	if b.size >= trueSize+minSplit {
		a.env.Instr(costSplit, sim.ClassAlloc)
		rest := &block{
			addr:    b.addr + mem.Addr(trueSize),
			size:    b.size - trueSize,
			free:    true,
			prevAdj: b,
			nextAdj: b.nextAdj,
		}
		if b.nextAdj != nil {
			b.nextAdj.prevAdj = rest
			// Update the next block's prev-size field.
			a.env.Write(b.nextAdj.addr, 8, sim.ClassAlloc)
		}
		b.nextAdj = rest
		b.size = trueSize
		a.env.Write(rest.addr, headerSize, sim.ClassAlloc)
		a.enlist(rest)
	}
	b.free = false
	a.env.Write(b.addr, headerSize, sim.ClassAlloc)
	p := b.addr + headerSize
	a.byPayload.put(p, b)
	return p
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

// Free implements heap.Allocator: read the header, coalesce with free
// neighbours (the defragmentation the paper's approach dodges), enlist.
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
	b, ok := a.byPayload.take(p)
	if !ok {
		panic(fmt.Sprintf("zend: free of unknown payload %#x", p))
	}

	// Fast-cache path: park small blocks for exact-size reuse; the
	// boundary-tag free (with its coalescing) is deferred to the flush.
	if b.size <= cacheMaxSize {
		ci := int(b.size/8) - 1
		a.env.Instr(costFreeCache, sim.ClassAlloc)
		a.env.Read(b.addr, headerSize, sim.ClassAlloc)
		a.env.Write(p, 8, sim.ClassAlloc) // link word
		a.env.Write(a.cacheHeadAddr(ci), 8, sim.ClassAlloc)
		a.cache[ci].Push(p)
		a.cacheMeta.put(p, b)
		a.cacheBytes += b.size
		if a.cacheBytes > cacheByteLimit {
			a.flushCache()
		}
		return
	}
	a.freeBlock(b)
}

// flushCache drains the fast cache through the full coalescing free path —
// the batched defragmentation that the cache only postponed.
func (a *Allocator) flushCache() {
	a.env.Instr(costCacheFlush, sim.ClassAlloc)
	for ci := range a.cache {
		for {
			p := a.cache[ci].Pop()
			if p == 0 {
				break
			}
			a.env.Read(p, 8, sim.ClassAlloc)
			b, _ := a.cacheMeta.take(p)
			a.freeBlock(b)
		}
	}
	a.env.Write(a.cacheArr, numCacheLists*8, sim.ClassAlloc)
	a.cacheBytes = 0
}

// freeBlock is the boundary-tag free: read the header, coalesce with free
// neighbours, enlist in a bucket.
func (a *Allocator) freeBlock(b *block) {
	a.env.Instr(costFreeBase, sim.ClassAlloc)
	a.env.Read(b.addr, headerSize, sim.ClassAlloc)
	b.free = true

	// Coalesce with the next block. Merging with the wilderness grows
	// the top chunk (the block disappears into it); merging with an
	// ordinary free block absorbs it.
	if n := b.nextAdj; n != nil {
		a.env.Read(n.addr, headerSize, sim.ClassAlloc)
		if n.free && n.bucket == bucketWild {
			a.env.Instr(costMerge, sim.ClassAlloc)
			n.addr = b.addr
			n.size += b.size
			n.prevAdj = b.prevAdj
			if b.prevAdj != nil {
				b.prevAdj.nextAdj = n
			}
			for _, s := range a.segments {
				if s.first == b {
					s.first = n
				}
			}
			a.env.Write(n.addr, headerSize, sim.ClassAlloc)
			return
		}
		if n.free {
			a.env.Instr(costMerge, sim.ClassAlloc)
			a.unlink(n)
			b.size += n.size
			b.nextAdj = n.nextAdj
			if n.nextAdj != nil {
				n.nextAdj.prevAdj = b
				a.env.Write(n.nextAdj.addr, 8, sim.ClassAlloc)
			}
		}
	}
	// Coalesce with the previous block. The PREV_FREE flag in b's own
	// header (already read) says whether the previous block is free, so
	// its header is only touched when a merge actually happens — the
	// standard boundary-tag trick.
	if pr := b.prevAdj; pr != nil {
		if pr.free {
			a.env.Read(pr.addr, headerSize, sim.ClassAlloc)
			a.env.Instr(costMerge, sim.ClassAlloc)
			a.unlink(pr)
			pr.size += b.size
			pr.nextAdj = b.nextAdj
			if b.nextAdj != nil {
				b.nextAdj.prevAdj = pr
				a.env.Write(b.nextAdj.addr, 8, sim.ClassAlloc)
			}
			b = pr
		}
	}
	a.env.Write(b.addr, headerSize, sim.ClassAlloc)
	a.enlist(b)
}

// Realloc implements heap.Allocator: in place when the block already fits,
// expanding into a free next neighbour when possible, otherwise move.
func (a *Allocator) Realloc(p heap.Ptr, oldSize, newSize uint64) heap.Ptr {
	a.stats.Reallocs++
	if p == 0 {
		return a.Malloc(newSize)
	}
	if _, isHuge := a.huge[p]; !isHuge {
		b, _ := a.byPayload.get(p)
		if b != nil {
			trueSize := (newSize + headerSize + 7) &^ 7
			a.env.Instr(20, sim.ClassAlloc)
			a.env.Read(b.addr, headerSize, sim.ClassAlloc)
			if trueSize <= b.size && trueSize < hugeCutoff {
				return p // fits in place
			}
			// Try expanding into a free next neighbour (but never
			// into the wilderness, which is carved via malloc).
			if n := b.nextAdj; n != nil && n.bucket != bucketWild {
				a.env.Read(n.addr, headerSize, sim.ClassAlloc)
				if n.free && b.size+n.size >= trueSize && trueSize < hugeCutoff {
					a.env.Instr(costMerge, sim.ClassAlloc)
					a.unlink(n)
					b.size += n.size
					b.nextAdj = n.nextAdj
					if n.nextAdj != nil {
						n.nextAdj.prevAdj = b
						a.env.Write(n.nextAdj.addr, 8, sim.ClassAlloc)
					}
					a.env.Write(b.addr, headerSize, sim.ClassAlloc)
					return p
				}
			}
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

// FreeAll implements heap.Allocator: PHP's end-of-request shutdown resets
// every segment to a single wilderness block and clears the buckets.
func (a *Allocator) FreeAll() {
	a.stats.FreeAlls++
	a.env.Instr(costFreeAllBase, sim.ClassAlloc)
	a.env.Write(a.bucketArr, numBuckets*8, sim.ClassAlloc)
	a.env.Write(a.cacheArr, numCacheLists*8, sim.ClassAlloc)
	a.buckets = [numBuckets]*block{}
	a.byPayload = newPtrmap()
	for i := range a.cache {
		a.cache[i].Reset()
	}
	a.cacheMeta = newPtrmap()
	a.cacheBytes = 0
	for _, s := range a.segments {
		a.env.Instr(costPerSegReset, sim.ClassAlloc)
		w := &block{addr: s.m.Base, size: s.m.Size, free: true, bucket: bucketWild}
		s.first = w
		s.wild = w
		a.env.Write(w.addr, headerSize, sim.ClassAlloc)
	}
	for p, m := range a.huge {
		a.env.Instr(costHuge, sim.ClassAlloc)
		a.env.Instr(300, sim.ClassOS)
		a.mappedBytes -= m.Size
		a.env.AS.Unmap(m)
		delete(a.huge, p)
	}
}

// PeakFootprint implements heap.Allocator: bytes obtained from the
// underlying allocator (the paper's Figure 9 definition for the default).
func (a *Allocator) PeakFootprint() uint64 { return a.peakMapped }

// ResetPeak implements heap.Allocator.
func (a *Allocator) ResetPeak() { a.peakMapped = a.mappedBytes }

// Segments reports how many segments are mapped (for tests).
func (a *Allocator) Segments() int { return len(a.segments) }

// CheckTiling verifies the boundary-tag invariant: within every segment the
// adjacency chain starts at the segment base, blocks abut exactly (no gaps,
// no overlap), the chain ends at the segment end, and no two free non-wild
// neighbours remain uncoalesced outside the fast cache. It exists for tests
// and debugging.
func (a *Allocator) CheckTiling() error {
	cached := make(map[mem.Addr]bool, a.cacheMeta.n)
	a.cacheMeta.each(func(p mem.Addr, _ *block) {
		cached[p] = true
	})
	for si, s := range a.segments {
		addr := s.m.Base
		var prev *block
		for b := s.first; b != nil; b = b.nextAdj {
			if b.addr != addr {
				return fmt.Errorf("segment %d: block at %#x, expected %#x (gap or overlap)",
					si, b.addr, addr)
			}
			if b.prevAdj != prev {
				return fmt.Errorf("segment %d: block %#x has wrong prevAdj", si, b.addr)
			}
			if prev != nil && prev.free && b.free &&
				prev.bucket != bucketWild && b.bucket != bucketWild &&
				!cached[prev.addr+headerSize] && !cached[b.addr+headerSize] {
				return fmt.Errorf("segment %d: uncoalesced free neighbours at %#x/%#x",
					si, prev.addr, b.addr)
			}
			addr += mem.Addr(b.size)
			prev = b
		}
		if addr != s.m.End() {
			return fmt.Errorf("segment %d: chain ends at %#x, want %#x", si, addr, s.m.End())
		}
	}
	return nil
}
