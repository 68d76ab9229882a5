// Package hoard models the Hoard allocator (Berger et al., ASPLOS 2000),
// one of the two "well known general-purpose allocators" of the paper's
// Ruby comparison (§4.4, hoard-3.7).
//
// Hoard organizes memory into fixed-size *superblocks* (8 KiB), each
// dedicated to one size class and owned by one per-thread heap. Allocation
// pops from the superblock's internal free list; free pushes back and
// updates the superblock's fullness accounting. Hoard's distinguishing
// overhead is maintaining its *emptiness invariant*: superblocks are kept
// on fullness-group lists, moved between groups as their occupancy crosses
// thresholds, and released to a global heap when sufficiently empty — list
// surgery and header writes on top of every malloc/free, which is why the
// paper finds it slower than TCmalloc's thread-cache fast path but faster
// than glibc's full coalescing.
package hoard

import (
	"fmt"

	"webmm/internal/heap"
	"webmm/internal/mem"
	"webmm/internal/sim"
)

const (
	// SuperblockSize matches Hoard's 8 KiB superblocks.
	SuperblockSize = 8 * mem.KiB

	superHeader = 32 // size class, owner, fullness counters, group links

	// largeCutoff: objects above half a superblock go straight to the OS.
	largeCutoff = SuperblockSize / 2

	// fullnessGroups partitions occupancy into quarters.
	fullnessGroups = 4

	costMallocFast = 24
	costFreeFast   = 22
	costGroupMove  = 30
	costNewSuper   = 90
	costLarge      = 70

	// CodeSize is the allocator's simulated code footprint. The
	// allocator registry reports it without constructing an allocator.
	CodeSize = 14 * mem.KiB
)

type superblock struct {
	base     mem.Addr
	class    int
	objSize  uint64
	capacity int
	inUse    int
	group    int
	freeList heap.FreeList
	bump     int // objects never yet allocated
}

// Allocator is the Hoard model (one heap: the paper's runtimes are
// single-threaded processes, so the per-thread/global heap distinction
// collapses to one heap plus the emptiness bookkeeping).
type Allocator struct {
	env *sim.Env

	// groups[class][fullness] holds superblocks ordered most-full-first
	// (Hoard allocates from nearly full superblocks to keep emptiness
	// concentrated).
	groups [heap.NumClasses][fullnessGroups][]*superblock
	cur    [heap.NumClasses]*superblock

	byBase map[mem.Addr]*superblock
	large  map[mem.Addr]mem.Mapping

	mappedBytes uint64
	peakMapped  uint64
	stats       heap.Stats
}

// New returns a Hoard-model heap.
func New(env *sim.Env) *Allocator {
	return &Allocator{
		env:    env,
		byBase: make(map[mem.Addr]*superblock),
		large:  make(map[mem.Addr]mem.Mapping),
	}
}

// Name implements heap.Allocator.
func (a *Allocator) Name() string { return "Hoard" }

// CodeSize implements heap.Allocator.
func (a *Allocator) CodeSize() uint64 { return CodeSize }

// SupportsFree implements heap.Allocator.
func (a *Allocator) SupportsFree() bool { return true }

// SupportsFreeAll implements heap.Allocator: Hoard is malloc/free only.
func (a *Allocator) SupportsFreeAll() bool { return false }

// FreeAll implements heap.Allocator by panicking.
func (a *Allocator) FreeAll() { panic("hoard: no freeAll") }

// Stats implements heap.Allocator.
func (a *Allocator) Stats() heap.Stats { return a.stats }

func fullnessOf(sb *superblock) int {
	g := sb.inUse * fullnessGroups / (sb.capacity + 1)
	if g >= fullnessGroups {
		g = fullnessGroups - 1
	}
	return g
}

// regroup moves a superblock to its current fullness group, modelling the
// emptiness-invariant bookkeeping (unlink + insert + header write).
func (a *Allocator) regroup(sb *superblock, oldGroup int) {
	g := fullnessOf(sb)
	if g == oldGroup {
		return
	}
	a.env.Instr(costGroupMove, sim.ClassAlloc)
	a.env.Write(sb.base, superHeader, sim.ClassAlloc)
	list := a.groups[sb.class][oldGroup]
	for i, s := range list {
		if s == sb {
			a.groups[sb.class][oldGroup] = append(list[:i], list[i+1:]...)
			break
		}
	}
	sb.group = g
	a.groups[sb.class][g] = append(a.groups[sb.class][g], sb)
}

// Malloc implements heap.Allocator.
func (a *Allocator) Malloc(size uint64) heap.Ptr {
	if size == 0 {
		size = 1
	}
	a.env.RecordAlloc(size)
	a.stats.Mallocs++
	a.stats.BytesRequested += size
	if size > largeCutoff {
		return a.mallocLarge(size)
	}
	cls := heap.SizeToClass(size)
	a.stats.BytesAllocated += heap.ClassSize(cls)
	a.env.Instr(costMallocFast, sim.ClassAlloc)

	sb := a.cur[cls]
	if sb == nil || sb.inUse == sb.capacity {
		sb = a.findSuperblock(cls)
		if sb == nil {
			return 0 // OOM: no superblock has room and none can be mapped
		}
		a.cur[cls] = sb
	}
	// Read the superblock header (fullness + free list head).
	a.env.Read(sb.base, superHeader, sim.ClassAlloc)
	old := fullnessOf(sb)
	var p heap.Ptr
	if p = sb.freeList.Pop(); p != 0 {
		a.env.Read(p, 8, sim.ClassAlloc) // link word
	} else {
		p = sb.base + mem.Addr(superHeader+uint64(sb.bump)*sb.objSize)
		sb.bump++
	}
	sb.inUse++
	a.env.Write(sb.base, 8, sim.ClassAlloc) // update counters
	a.regroup(sb, old)
	return p
}

// findSuperblock picks the fullest usable superblock of the class, mapping
// a fresh one if none has room; nil means the OS refused the mapping (OOM).
func (a *Allocator) findSuperblock(cls int) *superblock {
	for g := fullnessGroups - 2; g >= 0; g-- { // skip the completely-full group
		for _, sb := range a.groups[cls][g] {
			if sb.inUse < sb.capacity {
				a.env.Instr(10, sim.ClassAlloc)
				return sb
			}
		}
	}
	// Also check the top group: blocks there may still have one slot.
	for _, sb := range a.groups[cls][fullnessGroups-1] {
		if sb.inUse < sb.capacity {
			a.env.Instr(10, sim.ClassAlloc)
			return sb
		}
	}
	return a.newSuperblock(cls)
}

func (a *Allocator) newSuperblock(cls int) *superblock {
	m, err := a.env.AS.TryMap(SuperblockSize, SuperblockSize, mem.SmallPages)
	if err != nil {
		return nil
	}
	a.env.Instr(costNewSuper, sim.ClassAlloc)
	a.env.Instr(400, sim.ClassOS)
	a.mappedBytes += m.Size
	if a.mappedBytes > a.peakMapped {
		a.peakMapped = a.mappedBytes
	}
	objSize := heap.ClassSize(cls)
	sb := &superblock{
		base:     m.Base,
		class:    cls,
		objSize:  objSize,
		capacity: int((SuperblockSize - superHeader) / objSize),
	}
	if sb.capacity == 0 {
		panic(fmt.Sprintf("hoard: class %d objects too big for a superblock", cls))
	}
	a.env.Write(sb.base, superHeader, sim.ClassAlloc)
	a.byBase[m.Base] = sb
	a.groups[cls][0] = append(a.groups[cls][0], sb)
	return sb
}

// Free implements heap.Allocator: locate the superblock by alignment, push
// the object, update fullness.
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
	base := p &^ mem.Addr(SuperblockSize-1)
	sb, ok := a.byBase[base]
	if !ok {
		panic(fmt.Sprintf("hoard: free of %#x outside any superblock", p))
	}
	a.env.Instr(costFreeFast, sim.ClassAlloc)
	a.env.Read(sb.base, superHeader, sim.ClassAlloc)
	old := fullnessOf(sb)
	a.env.Write(p, 8, sim.ClassAlloc) // link word
	sb.freeList.Push(p)
	sb.inUse--
	a.env.Write(sb.base, 8, sim.ClassAlloc)
	a.regroup(sb, old)
}

func (a *Allocator) mallocLarge(size uint64) heap.Ptr {
	rounded := mem.RoundUp(size, 4096)
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
	if _, isLarge := a.large[p]; !isLarge && newSize > 0 && newSize <= largeCutoff && oldSize <= largeCutoff {
		a.env.Instr(16, sim.ClassAlloc)
		if heap.SizeToClass(newSize) == heap.SizeToClass(maxU64(oldSize, 1)) {
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

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
