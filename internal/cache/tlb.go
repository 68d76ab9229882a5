package cache

// TLB models a fully-associative data TLB with LRU replacement.
//
// The paper reports D-TLB misses per web transaction (Figure 8) and a >60 %
// D-TLB miss reduction from DDmalloc's large-page optimization. Entries are
// keyed by (page number, page shift) so 4 KiB and large pages coexist; a
// large page covers 512-1024x the address range of a small one, which is the
// entire mechanism behind the optimization.
//
// Recency is a doubly-linked list threaded through the slots by prev/next
// index arrays, closed into a ring by one sentinel slot: the head is the
// MRU entry and the tail the victim, so a hit moves its slot to the front
// and a miss reuses the tail, each in O(1). The tail is exactly the entry a
// per-entry last-use stamp model evicts, so outcomes are bit-identical to
// it; the stamps this replaced made a hit one store but cost every miss a
// scan over all entries (DESIGN.md §5.6). Access has no MRU short-circuit:
// the machine already skips the call when a core repeats its previous key.
//
// Lookups go through a small open-addressing index (hash of key → slot), so
// a hit costs one or two probes regardless of TLB size. Key matches are
// unique, so lookup strategy cannot change hit/miss outcomes. A key→slot
// memo in front of the index measured slower for the same reason as the
// caches' line→way memo (DESIGN.md §5.6).
type TLB struct {
	entries int
	keys    []uint64
	// prev and next link slot i to its more- and less-recently used
	// neighbours; index entries is the sentinel, so next[entries] is the
	// head (MRU) and prev[entries] the tail (LRU).
	prev, next []int32
	fill       int // entries holding a key; == entries once warm

	// slots maps hash(key) → slot+1 by linear probing (0 = empty). It is
	// sized at 4x entries so probe chains stay short even when full.
	slots    []int32
	slotMask uint64

	Hits, Misses uint64
}

// NewTLB returns a TLB with the given number of entries.
func NewTLB(entries int) *TLB {
	tabSize := 4
	for tabSize < 4*entries {
		tabSize *= 2
	}
	t := &TLB{
		entries:  entries,
		keys:     make([]uint64, entries),
		prev:     make([]int32, entries+1),
		next:     make([]int32, entries+1),
		slots:    make([]int32, tabSize),
		slotMask: uint64(tabSize - 1),
	}
	t.prev[entries], t.next[entries] = int32(entries), int32(entries)
	return t
}

// Key builds the lookup key for an address with the given page shift.
func Key(addr uint64, pageShift uint8) uint64 {
	// Shift occupies the low 6 bits; page numbers fit comfortably above.
	return (addr>>pageShift)<<6 | uint64(pageShift)
}

func (t *TLB) slotIdx(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15 >> 32) & t.slotMask
}

// indexDel removes key from the slot index, compacting the probe chain
// behind it (backward-shift deletion).
func (t *TLB) indexDel(key uint64) {
	i := t.slotIdx(key)
	for {
		s := t.slots[i]
		if s == 0 {
			return
		}
		if t.keys[s-1] == key {
			break
		}
		i = (i + 1) & t.slotMask
	}
	t.slots[i] = 0
	for j := (i + 1) & t.slotMask; t.slots[j] != 0; j = (j + 1) & t.slotMask {
		h := t.slotIdx(t.keys[t.slots[j]-1])
		if (j-h)&t.slotMask >= (j-i)&t.slotMask {
			t.slots[i] = t.slots[j]
			t.slots[j] = 0
			i = j
		}
	}
}

// indexPut records key → slot in the slot index.
func (t *TLB) indexPut(key uint64, slot int32) {
	i := t.slotIdx(key)
	for t.slots[i] != 0 {
		i = (i + 1) & t.slotMask
	}
	t.slots[i] = slot + 1
}

// pushFront links slot i in as the head (MRU) of the recency list.
func (t *TLB) pushFront(i int32) {
	sent := int32(t.entries)
	head := t.next[sent]
	t.prev[i], t.next[i] = sent, head
	t.prev[head] = i
	t.next[sent] = i
}

// unlink takes slot i out of the recency list.
func (t *TLB) unlink(i int32) {
	p, n := t.prev[i], t.next[i]
	t.next[p] = n
	t.prev[n] = p
}

// Access looks up key, filling the TLB on a miss, and reports a hit.
func (t *TLB) Access(key uint64) bool {
	keys := t.keys
	for i := t.slotIdx(key); ; i = (i + 1) & t.slotMask {
		s := t.slots[i]
		if s == 0 {
			break
		}
		if si := s - 1; keys[si] == key {
			t.Hits++
			t.unlink(si)
			t.pushFront(si)
			return true
		}
	}
	t.Misses++
	var slot int32
	if t.fill == t.entries {
		// Evict the least-recently-used entry: the list's tail.
		slot = t.prev[t.entries]
		t.indexDel(keys[slot])
		t.unlink(slot)
	} else {
		// Entries are never invalidated, so free slots are exactly the
		// indices not yet filled; taking them in index order matches the
		// first-free-slot choice of the original scan.
		slot = int32(t.fill)
		t.fill++
	}
	keys[slot] = key
	t.indexPut(key, slot)
	t.pushFront(slot)
	return false
}

// Reset empties the TLB and clears its counters.
func (t *TLB) Reset() {
	for i := range t.keys {
		t.keys[i] = 0
	}
	for i := range t.slots {
		t.slots[i] = 0
	}
	t.prev[t.entries], t.next[t.entries] = int32(t.entries), int32(t.entries)
	t.fill = 0
	t.Hits, t.Misses = 0, 0
}
