package zend

import "webmm/internal/mem"

// ptrmap is an open-addressing hash map from payload address to block
// metadata, replacing a Go map on the Malloc/Free hot path. Every operation
// is a deterministic function of the keys (fibonacci hashing, linear
// probing, backward-shift deletion — no tombstones, no randomized probe
// seed), and lookups touch one contiguous key array instead of hashing
// through runtime map buckets. Key 0 marks an empty slot; payload addresses
// are always non-zero (every simulated address space starts far above zero).
type ptrmap struct {
	keys   []mem.Addr
	vals   []*block
	n      int
	mask   uint64
	growAt int // n threshold (3/4 load) above which put grows first
}

const ptrmapMinSize = 256 // power of two

func newPtrmap() *ptrmap {
	return &ptrmap{
		keys:   make([]mem.Addr, ptrmapMinSize),
		vals:   make([]*block, ptrmapMinSize),
		mask:   ptrmapMinSize - 1,
		growAt: ptrmapMinSize - ptrmapMinSize/4,
	}
}

// idx returns k's home slot: fibonacci hashing spreads the low entropy of
// aligned addresses across the table.
func (m *ptrmap) idx(k mem.Addr) uint64 {
	x := uint64(k) * 0x9e3779b97f4a7c15
	return (x >> 32) & m.mask
}

// get returns the value stored for k, if any.
func (m *ptrmap) get(k mem.Addr) (*block, bool) {
	for i := m.idx(k); ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case k:
			return m.vals[i], true
		case 0:
			return nil, false
		}
	}
}

// put stores v under k, replacing any existing value. The home-slot check
// mirrors take's shape: an empty home slot proves k is absent (its probe
// chain ends immediately), so the dominant case — inserting a fresh block
// into an uncrowded table — is one load, two stores and a counter bump,
// with no probe loop and no grow arithmetic.
func (m *ptrmap) put(k mem.Addr, v *block) {
	if i := m.idx(k); m.keys[i] == 0 && m.n < m.growAt {
		m.keys[i] = k
		m.vals[i] = v
		m.n++
		return
	}
	m.putSlow(k, v)
}

func (m *ptrmap) putSlow(k mem.Addr, v *block) {
	if m.n >= m.growAt {
		m.grow()
	}
	for i := m.idx(k); ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case k:
			m.vals[i] = v
			return
		case 0:
			m.keys[i] = k
			m.vals[i] = v
			m.n++
			return
		}
	}
}

// take removes and returns k's value in one probe walk, compacting the
// probe chain behind it (backward-shift deletion) so lookups never need
// tombstones. The Malloc fast-cache hit and every Free look an entry up and
// remove it, which take does without re-finding the slot.
func (m *ptrmap) take(k mem.Addr) (*block, bool) {
	i := m.idx(k)
	for {
		switch m.keys[i] {
		case k:
		case 0:
			return nil, false
		default:
			i = (i + 1) & m.mask
			continue
		}
		break
	}
	v := m.vals[i]
	m.keys[i] = 0
	m.vals[i] = nil
	m.n--
	for j := (i + 1) & m.mask; m.keys[j] != 0; j = (j + 1) & m.mask {
		// Move j's entry into the hole unless it already sits within
		// [home(j), j] — i.e. the hole is outside its probe path.
		h := m.idx(m.keys[j])
		if (j-h)&m.mask >= (j-i)&m.mask {
			m.keys[i], m.vals[i] = m.keys[j], m.vals[j]
			m.keys[j], m.vals[j] = 0, nil
			i = j
		}
	}
	return v, true
}

// each calls f for every entry, in slot (not insertion) order. Callers must
// not depend on the order beyond its determinism.
func (m *ptrmap) each(f func(mem.Addr, *block)) {
	for i, k := range m.keys {
		if k != 0 {
			f(k, m.vals[i])
		}
	}
}

func (m *ptrmap) grow() {
	oldKeys, oldVals := m.keys, m.vals
	size := len(oldKeys) * 2
	m.keys = make([]mem.Addr, size)
	m.vals = make([]*block, size)
	m.mask = uint64(size - 1)
	m.growAt = size - size/4
	m.n = 0
	for i, k := range oldKeys {
		if k != 0 {
			m.put(k, oldVals[i])
		}
	}
}
