package cache

import (
	"fmt"
	"testing"
)

// This file is the regression suite for the LRU replacement-state redesign.
//
// The seed implementation kept a per-way timestamp stamped from a 32-bit
// tick. A paper-scale cell prices more than 2^32 accesses, so the tick
// wrapped and newly-touched lines suddenly stamped *older* than stale ones,
// silently inverting LRU order mid-run. The fix replaces timestamps with
// packed recency permutations, which have no counter at all; these tests
// pin the implementation to a reference model that uses unbounded (64-bit)
// timestamps *started beyond the old 32-bit boundary*, so the sequences
// exercised here are exactly the regime where the seed implementation went
// wrong — TestLRUWrapRegressionHasTeeth proves a 32-bit-stamped model does
// diverge on the same inputs.

// refCache is the executable specification: explicit per-way uint64 stamps,
// scanned the way the seed code did. tick starts just below 2^32 so every
// sequence crosses the old wraparound boundary.
type refCache struct {
	sets, ways int
	tags       []uint64
	stamp      []uint64
	dirty      []bool
	pf         []bool
	tick       uint64
	trunc32    bool // stamp through uint32 truncation: reproduce the seed bug

	hits, misses, wbs, pfInstalls, pfUseful uint64
}

func newRefCache(sets, ways int, startTick uint64, trunc32 bool) *refCache {
	n := sets * ways
	return &refCache{
		sets: sets, ways: ways,
		tags: make([]uint64, n), stamp: make([]uint64, n),
		dirty: make([]bool, n), pf: make([]bool, n),
		tick: startTick, trunc32: trunc32,
	}
}

func (r *refCache) now() uint64 {
	r.tick++
	if r.trunc32 {
		return r.tick & 0xFFFFFFFF
	}
	return r.tick
}

func (r *refCache) find(line uint64) int {
	sn := int(line) % r.sets
	for w := 0; w < r.ways; w++ {
		if r.tags[sn*r.ways+w] == line {
			return sn*r.ways + w
		}
	}
	return -1
}

// victim implements the documented choice: the first invalid way at index
// >= 1 wins, else way 0 if invalid, else the way with the smallest stamp
// (earliest index on the impossible tie).
func (r *refCache) victim(sn int) int {
	base := sn * r.ways
	for w := 1; w < r.ways; w++ {
		if r.tags[base+w] == 0 {
			return base + w
		}
	}
	if r.tags[base] == 0 {
		return base
	}
	oldest := base
	for w := 1; w < r.ways; w++ {
		if r.stamp[base+w] < r.stamp[oldest] {
			oldest = base + w
		}
	}
	return oldest
}

func (r *refCache) install(line uint64, dirty, pf bool) Victim {
	sn := int(line) % r.sets
	i := r.victim(sn)
	var v Victim
	if r.tags[i] != 0 {
		v = Victim{Line: r.tags[i], Dirty: r.dirty[i], Valid: true}
		if v.Dirty {
			r.wbs++
		}
	}
	r.tags[i] = line
	r.stamp[i] = r.now()
	r.dirty[i] = dirty
	r.pf[i] = pf
	return v
}

func (r *refCache) Access(line uint64, write bool) (bool, bool, Victim) {
	if i := r.find(line); i >= 0 {
		r.hits++
		r.stamp[i] = r.now()
		if write {
			r.dirty[i] = true
		}
		if r.pf[i] {
			r.pf[i] = false
			r.pfUseful++
			return true, true, Victim{}
		}
		return true, false, Victim{}
	}
	r.misses++
	return false, false, r.install(line, write, false)
}

func (r *refCache) Install(line uint64, pf bool) (bool, Victim) {
	if r.find(line) >= 0 {
		return false, Victim{}
	}
	if pf {
		r.pfInstalls++
	}
	return true, r.install(line, false, pf)
}

func (r *refCache) WriteBack(line uint64) Victim {
	if i := r.find(line); i >= 0 {
		r.dirty[i] = true // a writeback hit does not refresh recency
		return Victim{}
	}
	return r.install(line, true, false)
}

func (r *refCache) Invalidate(line uint64) bool {
	i := r.find(line)
	if i < 0 {
		return false
	}
	d := r.dirty[i]
	r.tags[i] = 0
	r.dirty[i] = false
	r.pf[i] = false
	return d
}

// lruOps drives the same pseudo-random operation stream against any
// cache-shaped implementation and returns a trace of every observable
// result. 12 distinct lines per set against 4-8 ways forces constant
// eviction churn.
type cacheOps interface {
	Access(line uint64, write bool) (bool, bool, Victim)
	Install(line uint64, pf bool) (bool, Victim)
	WriteBack(line uint64) Victim
	Invalidate(line uint64) bool
}

func lruTrace(c cacheOps, sets int, n int) []uint64 {
	var trace []uint64
	rec := func(vs ...uint64) { trace = append(trace, vs...) }
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < n; i++ {
		r := next()
		line := (r>>8)%uint64(12*sets) + 1 // line 0 is reserved
		switch r % 16 {
		case 0, 1, 2:
			_, v := c.Install(line, true)
			rec(v.Line, b2u(v.Dirty), b2u(v.Valid))
		case 3, 4:
			v := c.WriteBack(line)
			rec(v.Line, b2u(v.Dirty), b2u(v.Valid))
		case 5:
			rec(b2u(c.Invalidate(line)))
		default:
			hit, pf, v := c.Access(line, r%3 == 0)
			rec(b2u(hit), b2u(pf), v.Line, b2u(v.Dirty), b2u(v.Valid))
		}
	}
	return trace
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestCacheMatchesReferenceModelAcrossWrapBoundary: the permutation-based
// Cache must produce the exact hit/miss/victim trace of the 64-bit
// reference model whose clock crosses the old 2^32 tick boundary
// mid-sequence — replacement behaviour is independent of how many accesses
// the cache has already served.
func TestCacheMatchesReferenceModelAcrossWrapBoundary(t *testing.T) {
	for _, ways := range []int{4, 8, 16} {
		sets := 8
		c := New(Config{Name: "t", Size: uint64(sets * ways * 64), Ways: ways})
		ref := newRefCache(sets, ways, 1<<32-2000, false)

		got := lruTrace(c, sets, 20000)
		want := lruTrace(ref, sets, 20000)
		if len(got) != len(want) {
			t.Fatalf("ways=%d: trace lengths differ", ways)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ways=%d: trace diverges at %d: got %d want %d", ways, i, got[i], want[i])
			}
		}
		if c.Hits != ref.hits || c.Misses != ref.misses || c.Writebacks != ref.wbs ||
			c.PrefetchInstalls != ref.pfInstalls || c.PrefetchUsefulHits != ref.pfUseful {
			t.Fatalf("ways=%d: counters diverge: got %d/%d/%d/%d/%d want %d/%d/%d/%d/%d",
				ways, c.Hits, c.Misses, c.Writebacks, c.PrefetchInstalls, c.PrefetchUsefulHits,
				ref.hits, ref.misses, ref.wbs, ref.pfInstalls, ref.pfUseful)
		}
	}
}

// TestLRUWrapRegressionHasTeeth proves the trace above actually covers the
// seed bug: the same reference model stamped through uint32 truncation —
// the seed's 32-bit tick — must diverge from the correct model on the same
// inputs. If this ever passes without divergence the equivalence test has
// stopped crossing the boundary and needs its clock moved.
func TestLRUWrapRegressionHasTeeth(t *testing.T) {
	sets, ways := 8, 8
	good := newRefCache(sets, ways, 1<<32-2000, false)
	bad := newRefCache(sets, ways, 1<<32-2000, true)
	g := lruTrace(good, sets, 20000)
	b := lruTrace(bad, sets, 20000)
	for i := range g {
		if g[i] != b[i] {
			return // wrapped model diverged, as the real bug did
		}
	}
	t.Fatal("uint32-wrapped model did not diverge; wrap regression no longer exercised")
}

// TestPromoteMaintainsPermutation pins the SWAR move-to-front against a
// plain slice model, for every way count the packed word supports.
func TestPromoteMaintainsPermutation(t *testing.T) {
	for ways := 1; ways <= 16; ways++ {
		order := uint64(identityOrder)
		ref := make([]int, 16)
		for i := range ref {
			ref[i] = i
		}
		rng := uint64(12345)
		for step := 0; step < 2000; step++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			w := int(rng % uint64(ways))
			order = promote(order, w)
			pos := 0
			for ref[pos] != w {
				pos++
			}
			copy(ref[1:pos+1], ref[:pos])
			ref[0] = w
			for i := 0; i < 16; i++ {
				if got := int(order >> (uint(i) * 4) & 0xF); got != ref[i] {
					t.Fatalf("ways=%d step=%d nibble %d: got %d want %d (order %#x)",
						ways, step, i, got, ref[i], order)
				}
			}
		}
	}
}

// refTLB is the fully-associative analogue: unbounded stamps, clock started
// past the old 32-bit boundary, first-free-slot fill, min-stamp eviction.
type refTLB struct {
	keys  []uint64
	stamp []uint64
	tick  uint64

	hits, misses uint64
}

func (t *refTLB) Access(key uint64) bool {
	t.tick++
	free := -1
	for i, k := range t.keys {
		if k == key {
			t.hits++
			t.stamp[i] = t.tick
			return true
		}
		if k == 0 && free < 0 {
			free = i
		}
	}
	t.misses++
	slot := free
	if slot < 0 {
		slot = 0
		for i := range t.stamp {
			if t.stamp[i] < t.stamp[slot] {
				slot = i
			}
		}
	}
	t.keys[slot] = key
	t.stamp[slot] = t.tick
	return false
}

// TestTLBMatchesReferenceModelAcrossWrapBoundary: the list-based TLB must
// report the exact hit/miss sequence of the stamp model for a churning key
// stream, independent of accumulated access count, at the test size and at
// every size the platforms use (32 after scaling, 64 on Niagara, 256 on
// Xeon).
func TestTLBMatchesReferenceModelAcrossWrapBoundary(t *testing.T) {
	for _, entries := range []int{16, 32, 64, 256} {
		t.Run(fmt.Sprintf("entries=%d", entries), func(t *testing.T) {
			tlb := NewTLB(entries)
			ref := &refTLB{
				keys:  make([]uint64, entries),
				stamp: make([]uint64, entries),
				tick:  1<<32 - 2000,
			}
			rng := uint64(0xDEADBEEFCAFE)
			for i := 0; i < 50000; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				// Three keys per entry: hits on resident keys and
				// constant eviction pressure from the tail.
				key := Key(rng%uint64(3*entries)*4096, 12)
				if got, want := tlb.Access(key), ref.Access(key); got != want {
					t.Fatalf("access %d (key %#x): got hit=%v want %v", i, key, got, want)
				}
			}
			if tlb.Hits != ref.hits || tlb.Misses != ref.misses {
				t.Fatalf("counters diverge: got %d/%d want %d/%d", tlb.Hits, tlb.Misses, ref.hits, ref.misses)
			}
		})
	}
}

// refPrefetcher mirrors the seed's timestamped tracker eviction with an
// unbounded clock.
type refPrefetcher struct {
	depth    int
	nextLine []uint64
	lastUse  []uint64
	conf     []uint8
	valid    []bool
	clock    uint64
	issued   uint64
}

func (p *refPrefetcher) OnMiss(line uint64) []uint64 {
	p.clock++
	for i := range p.nextLine {
		if !p.valid[i] {
			continue
		}
		if line >= p.nextLine[i] && line < p.nextLine[i]+4 {
			p.lastUse[i] = p.clock
			p.nextLine[i] = line + 1
			if p.conf[i] < 4 {
				p.conf[i]++
			}
			if p.conf[i] >= 2 {
				var out []uint64
				for d := 1; d <= p.depth; d++ {
					out = append(out, line+uint64(d))
				}
				p.issued += uint64(len(out))
				return out
			}
			return nil
		}
	}
	victim := 0
	for i := range p.nextLine {
		if !p.valid[i] {
			victim = i
			break
		}
		if p.lastUse[i] < p.lastUse[victim] {
			victim = i
		}
	}
	p.nextLine[victim] = line + 1
	p.conf[victim] = 1
	p.lastUse[victim] = p.clock
	p.valid[victim] = true
	return nil
}

// TestPrefetcherMatchesReferenceModel: tracker matching and LRU eviction
// must reproduce the timestamp model — including which tracker a new
// stream evicts — for interleaved ascending streams plus noise.
func TestPrefetcherMatchesReferenceModel(t *testing.T) {
	const trackers, depth = 8, 4
	p := NewPrefetcher(trackers, depth)
	ref := &refPrefetcher{
		depth:    depth,
		nextLine: make([]uint64, trackers),
		lastUse:  make([]uint64, trackers),
		conf:     make([]uint8, trackers),
		valid:    make([]bool, trackers),
		clock:    1<<32 - 3000,
	}
	streams := make([]uint64, 12)
	for i := range streams {
		streams[i] = uint64(1+i) << 20
	}
	rng := uint64(777)
	for i := 0; i < 30000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		var line uint64
		if rng%8 == 0 {
			line = rng >> 16 // random noise miss
		} else {
			s := rng % uint64(len(streams))
			streams[s]++ // advance one of the interleaved streams
			line = streams[s]
		}
		got := p.OnMiss(line)
		want := ref.OnMiss(line)
		if len(got) != len(want) {
			t.Fatalf("miss %d (line %#x): got %d prefetches, want %d", i, line, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("miss %d: prefetch %d: got %#x want %#x", i, j, got[j], want[j])
			}
		}
	}
	if p.Issued != ref.issued {
		t.Fatalf("Issued diverges: got %d want %d", p.Issued, ref.issued)
	}
}
