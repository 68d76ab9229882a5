// Package cache implements the hardware models of the memory hierarchy:
// set-associative write-back caches, a data TLB, and a stream prefetcher.
//
// These are the substrate the paper measures *on*: its central result — the
// region allocator's bus-traffic blow-up on eight cores versus DDmalloc's
// cache reuse — is an interaction between allocator address behaviour and
// exactly these structures. The models are trace-driven and deterministic:
// they classify each access (hit, L2 hit, memory) and report evictions; all
// latency pricing happens in internal/machine.
package cache

import (
	"fmt"
	"math/bits"

	"webmm/internal/mem"
)

// Victim describes a line evicted by an install.
type Victim struct {
	Line  uint64
	Dirty bool
	Valid bool
}

// Config sizes a cache.
type Config struct {
	Name string
	// Size is the capacity in bytes.
	Size uint64
	// Ways is the associativity.
	Ways int
}

// Sets returns the number of sets implied by the config.
func (c Config) Sets() int {
	sets := int(c.Size) / mem.LineSize / c.Ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets (size %d, ways %d) is not a power of two",
			c.Name, sets, c.Size, c.Ways))
	}
	return sets
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement. Tags are full line numbers, so distinct simulated addresses
// never alias.
//
// The hot-path state is laid out for the *host's* caches — the simulator
// prices hundreds of millions of accesses, each a handful of randomly
// indexed loads, so the number of distinct host cache lines touched per
// simulated access dominates wall-clock time (the paper's own lesson,
// applied to the tool that reproduces it):
//
//   - All per-set lookup metadata — signature words, recency permutation,
//     MRU hint, fill count — lives in one 32-byte setMeta record, so a
//     lookup touches one metadata line instead of four parallel arrays.
//   - A line's dirty and prefetched flags live in the top bits of its tag
//     word (line numbers are addresses >> 6 and stay far below 2^62), so
//     the flags ride along with the tag compare and there is no flags
//     array at all.
//
// Replacement state is a packed recency permutation, not timestamps: each
// set keeps one 64-bit word holding its way indices as nibbles ordered
// most- to least-recently used. A hit moves its way to the front of the
// word; a full set's victim is read off the tail nibble. Because LRU
// timestamps within a set are strictly monotonic and distinct, the
// permutation carries exactly the same information — the victim choice is
// bit-identical to a stamp scan — while costing one word of state per set.
// It also removes the access-counter wraparound hazard outright: a 32-bit
// tick wraps after 4 G accesses — a paper-scale cell prices more — silently
// inverting LRU order mid-run, and a permutation has no counter to wrap.
//
// Lookups probe the set's most-recently-hit way before scanning: the probe
// only changes *search order*, never which way matches or which way LRU
// evicts. There is deliberately no second probe level: a direct-mapped
// line→way memo in front of the scan measured 6–10% slower, because its
// table is one more randomly indexed host line and the SWAR signature scan
// already resolves a set in about one (DESIGN.md §5.6).
type Cache struct {
	cfg      Config
	sets     int
	ways     int
	setMask  uint64
	lruShift uint // (ways-1)*4: tail-nibble position in an order word

	tags []uint64 // sets*ways; line | flag bits; 0 means invalid
	meta []setMeta

	sigStride   int    // signature words per set (1 for ways <= 8, else 2)
	sigLastMask uint64 // high-bit mask covering the last word's real ways

	// Counters are cumulative for the life of the cache (Reset clears).
	Hits, Misses       uint64
	Writebacks         uint64
	PrefetchInstalls   uint64
	PrefetchUsefulHits uint64

	// everDirty and everPf record whether any line was ever marked dirty
	// or installed by a prefetcher. While both are false — true for the
	// whole life of an L1 I-cache — every tag word is a bare line number,
	// and AccessRun takes a lean loop that never inspects flag bits and
	// never reports dirty victims.
	everDirty, everPf bool
}

// setMeta is one set's lookup metadata, packed into a single 32-byte record
// so a set probe touches one host cache line: the signature words (sig1
// unused for ways <= 8), the packed recency permutation, the MRU way hint
// and the fill count.
type setMeta struct {
	sig0  uint64
	sig1  uint64
	order uint64
	mru   uint16
	fill  uint16
	_     uint32
}

const (
	// flagDirty and flagPrefetched occupy the top bits of a tag word,
	// above any reachable line number (addresses stay below 2^56, lines
	// below 2^50). tagLineMask strips them for compares.
	flagDirty      = uint64(1) << 62
	flagPrefetched = uint64(1) << 63
	tagLineMask    = flagDirty - 1

	// identityOrder packs way indices 15..0 as nibbles: the initial
	// recency permutation. Ways the cache doesn't have sit inert in the
	// high nibbles and are never promoted past a real way.
	identityOrder = 0xFEDCBA9876543210
)

// promote moves way w to the MRU front of a packed recency word: the nibble
// holding w is located with a SWAR zero-nibble scan (order is a permutation,
// so exactly one nibble matches), the nibbles below it shift up one
// position, and w lands in nibble 0. Branch-free.
func promote(order uint64, w int) uint64 {
	x := order ^ (uint64(w) * 0x1111111111111111)
	m := (x - 0x1111111111111111) & ^x & 0x8888888888888888
	shift := uint(bits.TrailingZeros64(m)) &^ 3 // 4 * nibble position of w
	low := order & (uint64(1)<<shift - 1)
	return order&^(uint64(1)<<(shift+4)-1) | low<<4 | uint64(w)
}

// sigOf returns line's one-byte signature. The multiply folds the line's
// high bits — within a set, lines share their low (index) bits — into a byte
// with a near-uniform distribution.
func sigOf(line uint64) uint64 {
	return line * 0x9e3779b97f4a7c15 >> 56
}

// findWay returns the way of set sn (metadata record m) holding line, or -1.
// tags must be the set's tag slice. The signature words narrow the search to
// ways whose signature byte matches; each candidate is verified against the
// full tag, and tags within a set are distinct, so the result is exactly
// what a linear scan would find. (The SWAR byte-match can flag a false extra
// candidate above a genuinely matching byte; the tag verify discards it.)
func (c *Cache) findWay(m *setMeta, line uint64, tags []uint64) int {
	pat := sigOf(line) * 0x0101010101010101
	x := m.sig0 ^ pat
	if c.sigStride == 1 {
		// One signature word covers every way (ways <= 8: both platforms'
		// L1s): straight-line SWAR with no loop overhead.
		h := (x - 0x0101010101010101) &^ x & c.sigLastMask
		for ; h != 0; h &= h - 1 {
			w := bits.TrailingZeros64(h) >> 3
			if tags[w]&tagLineMask == line {
				return w
			}
		}
		return -1
	}
	h := (x - 0x0101010101010101) &^ x & 0x8080808080808080
	for ; h != 0; h &= h - 1 {
		w := bits.TrailingZeros64(h) >> 3
		if tags[w]&tagLineMask == line {
			return w
		}
	}
	x = m.sig1 ^ pat
	h = (x - 0x0101010101010101) &^ x & c.sigLastMask
	for ; h != 0; h &= h - 1 {
		w := 8 + bits.TrailingZeros64(h)>>3
		if tags[w]&tagLineMask == line {
			return w
		}
	}
	return -1
}

// setSig records line's signature for way w in metadata record m.
func setSig(m *setMeta, w int, line uint64) {
	shift := uint(w&7) * 8
	if w < 8 {
		m.sig0 = m.sig0&^(0xFF<<shift) | sigOf(line)<<shift
	} else {
		m.sig1 = m.sig1&^(0xFF<<shift) | sigOf(line)<<shift
	}
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	sets := cfg.Sets()
	if cfg.Ways > 16 {
		panic(fmt.Sprintf("cache %s: %d ways overflow the packed recency word", cfg.Name, cfg.Ways))
	}
	stride := (cfg.Ways + 7) / 8
	lastMask := uint64(0x8080808080808080)
	if r := cfg.Ways % 8; r != 0 {
		lastMask &= uint64(1)<<(8*r) - 1
	}
	c := &Cache{
		cfg:         cfg,
		sets:        sets,
		ways:        cfg.Ways,
		setMask:     uint64(sets - 1),
		lruShift:    uint(cfg.Ways-1) * 4,
		tags:        make([]uint64, sets*cfg.Ways),
		meta:        make([]setMeta, sets),
		sigStride:   stride,
		sigLastMask: lastMask,
	}
	for i := range c.meta {
		c.meta[i].order = identityOrder
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Access looks up line, installing it on a miss. write marks the line dirty.
// It returns whether the access hit, whether the hit line had been brought
// in by the prefetcher and not yet used (the "prefetch hid this miss" case),
// and the victim evicted to make room on a miss.
func (c *Cache) Access(line uint64, write bool) (hit, prefetched bool, victim Victim) {
	sn := int(line & c.setMask)
	base := sn * c.ways
	tags := c.tags[base : base+c.ways]
	m := &c.meta[sn]
	w := int(m.mru)
	if !(w < len(tags) && tags[w]&tagLineMask == line) {
		if w = c.findWay(m, line, tags); w < 0 {
			c.Misses++
			return false, false, c.install(m, base, line, write, false)
		}
		m.mru = uint16(w)
	}
	c.Hits++
	// Promoting the way that is already at the front is the identity;
	// skipping it makes the repeat-hit path one compare.
	if ord := m.order; ord&0xF != uint64(w) {
		m.order = promote(ord, w)
	}
	t := tags[w]
	if write && t&flagDirty == 0 {
		t |= flagDirty
		tags[w] = t
		c.everDirty = true
	}
	if t&flagPrefetched != 0 {
		tags[w] = t &^ flagPrefetched
		c.PrefetchUsefulHits++
		return true, true, Victim{}
	}
	return true, false, Victim{}
}

// HitAgain re-prices an access to a line the caller knows was this
// cache's previous access in its set — still the set's MRU way, already
// promoted to the recency front, prefetched flag clear. In that state
// Access(line, write) changes nothing but the hit counter and, on a
// write, the dirty bit, so HitAgain performs exactly those and skips the
// probe. Callers must only use it on caches that never receive
// prefetcher installs (the machine's L1D qualifies: the prefetcher feeds
// the L2), since a prefetched-line hit would also need its flag cleared
// and counted.
func (c *Cache) HitAgain(line uint64, write bool) {
	c.Hits++
	if write {
		sn := int(line & c.setMask)
		c.tags[sn*c.ways+int(c.meta[sn].mru)] |= flagDirty
		c.everDirty = true
	}
}

// RunMiss records one miss inside an AccessRun: the missing line and the
// victim its install evicted.
type RunMiss struct {
	Line   uint64
	Victim Victim
}

// AccessRun performs Access(first+i, write) for every i in [0, n), appending
// one RunMiss per miss to buf and returning it. Hit/miss outcomes,
// replacement decisions and counters are bit-identical to the per-line loop;
// the batched form exists because runs of consecutive lines map to
// consecutive sets, so the set index and way base advance incrementally
// instead of being re-derived from the line number, and the call overhead is
// paid once per run instead of once per line. Sequential instruction
// fetches and multi-line data accesses are the simulator's two hottest
// access shapes, and both arrive as exactly such runs.
func (c *Cache) AccessRun(first, n uint64, write bool, buf []RunMiss) []RunMiss {
	if !write && !c.everDirty && !c.everPf {
		return c.accessRunClean(first, n, buf)
	}
	sn := int(first & c.setMask)
	ways := c.ways
	base := sn * ways
	for line, end := first, first+n; line < end; line++ {
		tags := c.tags[base : base+ways]
		m := &c.meta[sn]
		w := int(m.mru)
		hit := w < ways && tags[w]&tagLineMask == line
		if !hit {
			if w = c.findWay(m, line, tags); w >= 0 {
				m.mru = uint16(w)
				hit = true
			}
		}
		if hit {
			c.Hits++
			if ord := m.order; ord&0xF != uint64(w) {
				m.order = promote(ord, w)
			}
			t := tags[w]
			if write && t&flagDirty == 0 {
				t |= flagDirty
				tags[w] = t
				c.everDirty = true
			}
			if t&flagPrefetched != 0 {
				tags[w] = t &^ flagPrefetched
				c.PrefetchUsefulHits++
			}
		} else {
			c.Misses++
			buf = append(buf, RunMiss{Line: line, Victim: c.install(m, base, line, write, false)})
		}
		if sn++; sn == c.sets {
			sn, base = 0, 0
		} else {
			base += ways
		}
	}
	return buf
}

// accessRunClean is AccessRun for a cache that has never held a dirty or
// prefetched line, under a read run. Nothing can set a flag bit on this
// path, so every tag word is a bare line number: hits are a probe-or-scan
// plus a recency promote, misses a tag store plus a tail rotation, and
// victims are never dirty. An L1 I-cache stays on this path for its whole
// life, which makes sequential instruction fetch — the simulator's single
// largest access stream — its cheapest shape.
func (c *Cache) accessRunClean(first, n uint64, buf []RunMiss) []RunMiss {
	sn := int(first & c.setMask)
	ways := c.ways
	base := sn * ways
	for line, end := first, first+n; line < end; line++ {
		tags := c.tags[base : base+ways]
		m := &c.meta[sn]
		w := int(m.mru)
		hit := w < ways && tags[w] == line
		if !hit {
			if w = c.findWay(m, line, tags); w >= 0 {
				m.mru = uint16(w)
				hit = true
			}
		}
		if hit {
			c.Hits++
			if ord := m.order; ord&0xF != uint64(w) {
				m.order = promote(ord, w)
			}
		} else {
			c.Misses++
			ord := m.order
			var oldest int
			var victim Victim
			if int(m.fill) == ways {
				oldest = int(ord >> c.lruShift & 0xF)
				victim = Victim{Line: tags[oldest], Valid: true}
				low := uint64(1)<<c.lruShift - 1
				ord = ord&^(low<<4|0xF) | (ord&low)<<4 | uint64(oldest)
			} else {
				for x := 1; x < ways; x++ {
					if tags[x] == 0 {
						oldest = x
						break
					}
				}
				m.fill++
				ord = promote(ord, oldest)
			}
			tags[oldest] = line
			setSig(m, oldest, line)
			m.order = ord
			m.mru = uint16(oldest)
			buf = append(buf, RunMiss{Line: line, Victim: victim})
		}
		if sn++; sn == c.sets {
			sn, base = 0, 0
		} else {
			base += ways
		}
	}
	return buf
}

// Install brings line into the cache without counting a demand access; the
// prefetcher uses it. It reports whether the line was actually installed
// (false if already resident — no bus transfer happens then) and the victim
// evicted to make room.
func (c *Cache) Install(line uint64, prefetch bool) (installed bool, victim Victim) {
	sn := int(line & c.setMask)
	base := sn * c.ways
	tags := c.tags[base : base+c.ways]
	m := &c.meta[sn]
	if w := int(m.mru); w < len(tags) && tags[w]&tagLineMask == line {
		return false, Victim{}
	}
	if c.findWay(m, line, tags) >= 0 {
		return false, Victim{}
	}
	if prefetch {
		c.PrefetchInstalls++
	}
	return true, c.install(m, base, line, false, prefetch)
}

// install picks the set's LRU victim, evicts it, and installs line as the
// set's most recent. base is sn*ways. Once a set has filled — the steady
// state for every set after warmup — the victim is simply the tail nibble
// of the set's recency word: no scan at all. While the set is still
// filling, the first invalid way at index >= 1 wins, else way 0 (which must
// then be the invalid one) — the same choice the original stamp scan made,
// since untouched ways carried stamp 0 and could never lose a
// strictly-less comparison.
func (c *Cache) install(m *setMeta, base int, line uint64, write, prefetch bool) Victim {
	if write {
		c.everDirty = true
	}
	if prefetch {
		c.everPf = true
	}
	ord := m.order
	var oldest int
	var victim Victim
	if int(m.fill) == c.ways {
		oldest = int(ord >> c.lruShift & 0xF)
		t := c.tags[base+oldest]
		victim = Victim{
			Line:  t & tagLineMask,
			Dirty: t&flagDirty != 0,
			Valid: true,
		}
		if victim.Dirty {
			c.Writebacks++
		}
		// Promoting the tail nibble is a rotation of the low ways
		// nibbles — cheaper than the general SWAR promote, and installs
		// into full sets are the steady state of every miss.
		low := uint64(1)<<c.lruShift - 1
		ord = ord&^(low<<4|0xF) | (ord&low)<<4 | uint64(oldest)
	} else {
		tags := c.tags[base : base+c.ways]
		for w := 1; w < len(tags); w++ {
			if tags[w] == 0 {
				oldest = w
				break
			}
		}
		m.fill++
		ord = promote(ord, oldest)
	}
	t := line
	if write {
		t |= flagDirty
	}
	if prefetch {
		t |= flagPrefetched
	}
	c.tags[base+oldest] = t
	setSig(m, oldest, line)
	m.order = ord
	m.mru = uint16(oldest)
	return victim
}

// WriteBack absorbs a dirty line evicted from an upper-level cache: if the
// line is resident it is marked dirty; otherwise it is installed dirty. The
// returned victim may itself be dirty, propagating the writeback downward.
// WriteBack does not count as a demand hit or miss, and a writeback hit does
// not refresh the line's recency.
func (c *Cache) WriteBack(line uint64) Victim {
	c.everDirty = true
	sn := int(line & c.setMask)
	base := sn * c.ways
	tags := c.tags[base : base+c.ways]
	m := &c.meta[sn]
	if w := int(m.mru); w < len(tags) && tags[w]&tagLineMask == line {
		tags[w] |= flagDirty
		return Victim{}
	}
	if w := c.findWay(m, line, tags); w >= 0 {
		m.mru = uint16(w)
		tags[w] |= flagDirty
		return Victim{}
	}
	return c.install(m, base, line, true, false)
}

// Contains reports whether line is resident (no state change).
func (c *Cache) Contains(line uint64) bool {
	sn := int(line & c.setMask)
	base := sn * c.ways
	tags := c.tags[base : base+c.ways]
	if w := int(c.meta[sn].mru); w < len(tags) && tags[w]&tagLineMask == line {
		return true
	}
	for _, t := range tags {
		if t&tagLineMask == line {
			return true
		}
	}
	return false
}

// Invalidate drops line if resident, returning whether it was dirty. The
// way keeps its slot in the recency permutation; because the set is no
// longer full, the next install re-fills it via the invalid-way scan.
func (c *Cache) Invalidate(line uint64) (wasDirty bool) {
	sn := int(line & c.setMask)
	set := sn * c.ways
	m := &c.meta[sn]
	for w := 0; w < c.ways; w++ {
		i := set + w
		if c.tags[i]&tagLineMask == line {
			wasDirty = c.tags[i]&flagDirty != 0
			c.tags[i] = 0
			shift := uint(w&7) * 8
			if w < 8 {
				m.sig0 &^= 0xFF << shift
			} else {
				m.sig1 &^= 0xFF << shift
			}
			m.fill--
			return wasDirty
		}
	}
	return false
}

// Reset empties the cache and clears its counters.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
	}
	for i := range c.meta {
		c.meta[i] = setMeta{order: identityOrder}
	}
	c.Hits, c.Misses, c.Writebacks = 0, 0, 0
	c.PrefetchInstalls, c.PrefetchUsefulHits = 0, 0
	c.everDirty, c.everPf = false, false
}
