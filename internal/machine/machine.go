package machine

import (
	"context"
	"fmt"

	"webmm/internal/cache"
	"webmm/internal/cpu"
	"webmm/internal/mem"
	"webmm/internal/memsys"
	"webmm/internal/sim"
)

// Driver produces the work of one runtime process (one hardware thread). A
// driver is constructed around the Env the machine hands it (the Env is the
// process's address space and event recorder) and generates web
// transactions in bounded slices so event buffers stay small at full
// workload scale.
type Driver interface {
	// StepTransaction generates the next slice of the current
	// transaction into the stream's Env, returning true when the
	// transaction is complete. The machine prices the emitted events
	// between calls.
	StepTransaction() bool
}

// Stream is one hardware thread running one runtime process.
type Stream struct {
	ID   int
	Core int
	Env  *sim.Env

	// core and l2 are the stream's fixed position in the hierarchy,
	// resolved once at construction so pricing never re-derives them.
	core *coreState
	l2   *l2State

	// counters accumulate measured (post-warmup) events by class.
	counters [sim.NumClasses]cpu.Counters
	txns     uint64

	// Page-shift region cache: the last PageShiftRegion answer from the
	// stream's address space. Consecutive events in the same large
	// mapping (or the same gap between large mappings) skip the
	// binary search; LargeEpoch revalidates after any Map/Unmap of a
	// large mapping.
	psEpoch uint64
	psLo    mem.Addr
	psHi    mem.Addr
	psShift uint8
}

// pageShiftOf resolves the page size backing a, serving repeats from the
// cached region.
func (s *Stream) pageShiftOf(a mem.Addr) uint8 {
	as := s.Env.AS
	if e := as.LargeEpoch(); e == s.psEpoch && s.psLo <= a && a < s.psHi {
		return s.psShift
	}
	shift, lo, hi := as.PageShiftRegion(a)
	s.psEpoch, s.psLo, s.psHi, s.psShift = as.LargeEpoch(), lo, hi, shift
	return shift
}

// coreState holds the per-core private structures (shared by the core's
// hardware threads, as on Niagara).
type coreState struct {
	l1d, l1i *cache.Cache
	tlb      *cache.TLB

	// lastData is the line of the core's previous data event when that
	// event was single-line, 0 otherwise (line 0 is never used). A repeat
	// of the same line is necessarily an L1D hit on the set's MRU way and
	// a TLB hit on the TLB's MRU entry — neither lookup changes any
	// replacement state — so priceData prices it as bare counter bumps.
	// Nothing but priceData touches the L1D or D-TLB (the prefetcher
	// feeds the L2, and instruction fetch has its own cache), so the memo
	// cannot go stale between data events.
	lastData uint64

	// tlbKey is the key of the core's previous TLB access. The TLB's MRU
	// entry always holds the last-accessed key, and a repeat MRU hit
	// changes nothing but the hit counter, so a key match skips the
	// lookup call outright. 0 is never a key (the page shift occupies the
	// low bits and is never 0).
	tlbKey uint64
}

// l2State is one L2 cache cluster with its prefetcher.
type l2State struct {
	c  *cache.Cache
	pf *cache.Prefetcher
}

// RoundSample is one pricing round's per-class hardware-counter delta,
// delivered to a Machine's Sampler. It is the telemetry layer's window into
// per-component cycle and miss attribution over time: each sample covers
// exactly one round, so a consumer can plot counter traffic per round or
// aggregate windows of any width.
type RoundSample struct {
	// Round numbers the samples from 0 across the machine's lifetime.
	Round int
	// Measuring reports whether the round was measured (post-warmup).
	// Warmup rounds deliver zero deltas because only measured rounds
	// accumulate counters.
	Measuring bool
	// ByClass is the counter delta of this round, by event class.
	ByClass [sim.NumClasses]cpu.Counters
}

// Machine wires streams, cores, L2 clusters and the bus together and prices
// event streams deterministically.
type Machine struct {
	Plat   Platform
	NCores int

	// Sampler, when non-nil, receives one RoundSample at the end of every
	// transaction round (PriceSetup delivers none). The delta computation
	// runs only when a sampler is attached, so the nil case costs one
	// branch per round.
	Sampler func(RoundSample)

	streams []*Stream
	cores   []*coreState
	l2s     []*l2State

	// memRec is the memory system's miss-traffic observer, resolved at
	// construction from the platform's model (RecordTo replaces it before
	// pricing starts). The default bus model observes nothing, so this is
	// nil and measured pricing pays one nil check per bus transaction.
	// Every Record call sits under the same meas condition as the bus
	// counter it mirrors, so unmeasured rounds record nothing and a DRAM
	// model sees exactly the traffic the bus is billed for
	// (TestRecorderSeesMeasuredBusTraffic).
	memRec memsys.Recorder

	// Sampler bookkeeping: the round counter, running per-class totals
	// maintained incrementally as pricing flushes counter deltas, and the
	// totals at the previous sample. Keeping classTotals up to date as a
	// side effect of the per-turn flush makes sample() O(classes) instead
	// of O(streams × classes), so sampling cost stays flat as -scale grows.
	// The totals are only maintained while a Sampler is attached; attach
	// one before the first pricing round.
	sampleRound int
	classTotals [sim.NumClasses]cpu.Counters
	lastClass   [sim.NumClasses]cpu.Counters

	// quantum is the pricing budget each stream contributes per
	// round-robin turn, approximating concurrent execution in the shared
	// caches. It is counted in line-equivalents: one unit per data event
	// and one per instruction-fetch line, so a fetch run emitted as a
	// single event splits across turns exactly where the per-line event
	// stream used to.
	quantum int

	measuring bool

	// cursors, done and runScratch are scratch reused across priceRound
	// and round calls, keeping the per-round pricing path allocation-free
	// (a full experiment prices tens of thousands of rounds).
	cursors    []evCursor
	done       []bool
	runScratch []cache.RunMiss
}

// evCursor walks one stream's buffered event columns during priceRound.
// lineOff is the number of lines of the fetch-run event at pos that earlier
// turns already priced, so a long run resumes mid-run at its quantum split.
type evCursor struct {
	addrs   []mem.Addr
	sizes   []uint32
	meta    []uint8
	pos     int
	lineOff uint64
}

// streamSpan is the address-space span reserved per stream (per process).
const streamSpan = 1 << 40

// New builds a machine with nCores active cores of the platform. The
// allocCode/appCode sizes configure the per-class code footprints (the
// allocator under test reports its own code size). seed derives every
// stream's RNG.
func New(p Platform, nCores int, allocCode, appCode uint64, seed uint64) *Machine {
	if nCores < 1 || nCores > p.MaxCores {
		panic(fmt.Sprintf("machine: nCores %d out of range 1..%d", nCores, p.MaxCores))
	}
	m := &Machine{Plat: p, NCores: nCores, quantum: 64, memRec: p.Mem.Recorder()}
	code := sim.NewCodeLayout(allocCode, appCode)
	root := sim.NewRNG(seed)

	nThreads := p.Threads(nCores)
	for i := 0; i < nThreads; i++ {
		as := mem.NewAddressSpace(mem.Addr(uint64(i+2)<<40), streamSpan, p.LargePageShift)
		env := sim.NewEnv(as, code, root.Uint64())
		m.streams = append(m.streams, &Stream{
			ID: i, Core: i / p.ThreadsPerCore, Env: env,
		})
	}
	for c := 0; c < nCores; c++ {
		m.cores = append(m.cores, &coreState{
			l1d: cache.New(p.L1D),
			l1i: cache.New(p.L1I),
			tlb: cache.NewTLB(p.TLBEntries),
		})
	}
	nL2 := (nCores + p.CoresPerL2 - 1) / p.CoresPerL2
	for i := 0; i < nL2; i++ {
		s := &l2State{c: cache.New(p.L2)}
		if p.Prefetch != nil {
			s.pf = cache.NewPrefetcher(p.Prefetch.Trackers, p.Prefetch.Depth)
		}
		m.l2s = append(m.l2s, s)
	}
	for _, s := range m.streams {
		s.core = m.cores[s.Core]
		s.l2 = m.l2ForCore(s.Core)
	}
	m.cursors = make([]evCursor, len(m.streams))
	m.done = make([]bool, len(m.streams))
	m.runScratch = make([]cache.RunMiss, 0, 64)
	return m
}

// Streams returns the machine's streams, one per hardware thread. Callers
// construct a Driver around each stream's Env before calling RunContext.
func (m *Machine) Streams() []*Stream { return m.streams }

// NumStreams returns the number of hardware threads.
func (m *Machine) NumStreams() int { return len(m.streams) }

// RecordTo replaces the miss-traffic recorder New took from the platform's
// memory system: rec observes the measured misses from then on, and nil
// records nothing. Pricing never reads a recorder, so one pass can feed
// the models of several sibling cells through a memsys.FanOut and each
// model then Solves as if it had been priced alone. Call it before the
// first pricing round.
func (m *Machine) RecordTo(rec memsys.Recorder) { m.memRec = rec }

// PriceSetup prices the events emitted during driver construction (allocator
// initialization) without measuring them, so setup cost warms the caches but
// does not pollute per-transaction statistics.
func (m *Machine) PriceSetup() {
	m.measuring = false
	m.priceRound()
}

// RunContext executes warmup+measure transactions on every stream. Warmup
// rounds warm caches, TLBs and allocator free lists; measured rounds
// accumulate the per-class hardware counters used by Solve. Within a round,
// drivers generate slices that are priced interleaved, modelling the
// concurrent execution of the runtime processes.
//
// Cancellation is cooperative: before every pass over the streams the loop
// polls ctx through sim.CtxErr and returns its error once it fires,
// leaving the machine's counters at whatever the completed rounds
// accumulated. A cancelled machine must not be Solved or reused — the
// caller reports the cell failed and discards it. An uncancellable ctx
// (context.Background) costs one nil check per pass.
func (m *Machine) RunContext(ctx context.Context, drivers []Driver, warmup, measure int) error {
	for r := 0; r < warmup+measure; r++ {
		if err := m.round(ctx, drivers, r >= warmup); err != nil {
			return err
		}
	}
	return nil
}

// round runs one transaction on every stream: it steps each unfinished
// driver, prices the slices they emitted, and repeats until every driver
// has completed its transaction. A measured round keeps the counters and
// counts one transaction per stream as its driver completes; this is the
// only place the machine counts a transaction. The round ends with one
// sample for the Sampler.
func (m *Machine) round(ctx context.Context, drivers []Driver, measured bool) error {
	if len(drivers) != len(m.streams) {
		panic(fmt.Sprintf("machine: %d drivers for %d streams", len(drivers), len(m.streams)))
	}
	m.measuring = measured
	done := m.done
	for i := range done {
		done[i] = false
	}
	remaining := len(drivers)
	for remaining > 0 {
		if err := sim.CtxErr(ctx); err != nil {
			return err
		}
		for i, d := range drivers {
			if done[i] {
				continue
			}
			if d.StepTransaction() {
				done[i] = true
				remaining--
				if measured {
					m.streams[i].txns++
				}
			}
		}
		m.priceRound()
	}
	m.sample(measured)
	return nil
}

// sample delivers one RoundSample — the per-class counter delta since the
// previous sample — to the attached Sampler. With no Sampler attached, the
// whole computation is skipped; pricing itself is untouched either way, so
// sampling can never perturb simulation results. The per-class totals are
// maintained incrementally by the pricing flush, so this is a constant-size
// computation regardless of stream count.
func (m *Machine) sample(measuring bool) {
	if m.Sampler == nil {
		return
	}
	totals := m.classTotals
	out := RoundSample{Round: m.sampleRound, Measuring: measuring, ByClass: totals}
	for cls := 0; cls < sim.NumClasses; cls++ {
		out.ByClass[cls].Sub(m.lastClass[cls])
	}
	m.lastClass = totals
	m.sampleRound++
	m.Sampler(out)
}

// priceRound prices all buffered events, interleaving streams round-robin in
// fixed quanta so that concurrent cache sharing and bus pressure are
// represented, then drains every Env. Measured and unmeasured rounds
// (warmup, setup, and sampled-fidelity warming rounds) share one pricing
// path, so both make the same cache, TLB and prefetcher state transitions in
// the same order; m.measuring only decides whether counters and memory-system
// records are kept. One path is deliberate: a warm-only copy of the kernel
// measured within noise, and two copies of the transition order can drift
// apart unseen (DESIGN.md §5.6).
func (m *Machine) priceRound() {
	cursors := m.cursors
	remaining := 0
	for i, s := range m.streams {
		b := s.Env.Buf()
		cursors[i] = evCursor{addrs: b.Addrs(), sizes: b.Sizes(), meta: b.Meta()}
		if b.Len() > 0 {
			remaining++
		}
	}
	meas := m.measuring
	for remaining > 0 {
		for i := range cursors {
			c := &cursors[i]
			if c.pos >= len(c.meta) {
				continue
			}
			m.priceTurn(m.streams[i], c)
			if c.pos >= len(c.meta) {
				remaining--
			}
		}
	}
	sampling := m.Sampler != nil
	for _, s := range m.streams {
		instr := s.Env.Drain()
		if meas {
			for cls := 0; cls < sim.NumClasses; cls++ {
				s.counters[cls].Instr += instr[cls]
				if sampling {
					m.classTotals[cls].Instr += instr[cls]
				}
			}
		}
	}
}

// priceTurn prices one stream's quantum: up to quantum line-equivalents of
// the cursor's remaining events. Counter deltas accumulate in a turn-local
// array that lives in registers and cache, and are flushed to the stream's
// (and, when sampling, the machine's) counters once per turn instead of
// once per line.
func (m *Machine) priceTurn(s *Stream, c *evCursor) {
	meas := m.measuring
	budget := m.quantum
	n := len(c.meta)
	var d [sim.NumClasses]cpu.Counters
	var touched uint8
	for budget > 0 && c.pos < n {
		i := c.pos
		mt := c.meta[i]
		cls := sim.MetaClass(mt)
		touched |= 1 << cls
		ctr := &d[cls]
		if k := sim.MetaKind(mt); k == sim.IFetch {
			first := mem.LineOf(c.addrs[i]) + c.lineOff
			take := uint64(c.sizes[i])/mem.LineSize - c.lineOff
			if take > uint64(budget) {
				// Quantum boundary mid-run: price the budgeted prefix now
				// and resume at the split next turn, exactly where the
				// per-line event stream used to hand over.
				take = uint64(budget)
				c.lineOff += take
			} else {
				c.pos++
				c.lineOff = 0
			}
			budget -= int(take)
			m.priceIFetchRun(s, ctr, first, take, meas)
		} else {
			m.priceData(s, ctr, c.addrs[i], c.sizes[i], k == sim.Write, meas)
			budget--
			c.pos++
		}
	}
	if !meas {
		return
	}
	sampling := m.Sampler != nil
	for cls := 0; cls < sim.NumClasses; cls++ {
		if touched&(1<<cls) == 0 || d[cls].IsZero() {
			continue
		}
		s.counters[cls].Add(d[cls])
		if sampling {
			m.classTotals[cls].Add(d[cls])
		}
	}
}

// priceIFetchRun prices a run of nLines sequential instruction fetches
// through the stream's L1 I-cache and, per miss, the shared L2.
func (m *Machine) priceIFetchRun(s *Stream, ctr *cpu.Counters, first, nLines uint64, meas bool) {
	misses := s.core.l1i.AccessRun(first, nLines, false, m.runScratch[:0])
	m.runScratch = misses
	l2 := s.l2
	for j := range misses {
		// Instruction lines are never dirty, so L1I victims need no
		// writeback.
		m.l2Access(l2, ctr, s.Core, misses[j].Line, false, true, meas)
	}
	if meas {
		ctr.L1IAcc += nLines
		ctr.L1IMiss += uint64(len(misses))
	}
}

// priceData prices one data event: a TLB lookup (one per event —
// page-crossing objects are rare and a second lookup would not change the
// shape of anything), an L1D run over the touched lines, and per L1 miss
// the dirty-victim writeback and shared-L2 access. The batched L1 sweep is
// bit-identical to the interleaved per-line loop it replaced: L1 outcomes
// never depend on L2 state, and the L2 operations replay in the original
// per-miss order.
func (m *Machine) priceData(s *Stream, ctr *cpu.Counters, addr mem.Addr, size uint32, write, meas bool) {
	first := mem.LineOf(addr)
	nLines := mem.LinesTouched(addr, uint64(size))
	core := s.core
	if nLines == 1 && first == core.lastData {
		// Repeat of the core's previous data line (about a quarter of the
		// data stream: write-then-reread of the newest object): both
		// lookups are hits that change no state beyond their counters.
		core.tlb.Hits++
		core.l1d.HitAgain(first, write)
		if meas {
			ctr.L1DAcc++
		}
		return
	}
	if nLines == 1 {
		core.lastData = first
	} else {
		core.lastData = 0
	}

	if key := cache.Key(uint64(addr), s.pageShiftOf(addr)); key == core.tlbKey {
		core.tlb.Hits++
	} else {
		core.tlbKey = key
		if !core.tlb.Access(key) && meas {
			ctr.TLBMiss++
		}
	}

	l2 := s.l2
	if nLines == 1 {
		// Single-line accesses are the bulk of the data stream; skip the
		// run machinery and price the one line directly.
		hit, _, victim := s.core.l1d.Access(first, write)
		if !hit {
			if victim.Valid && victim.Dirty {
				wbVictim := l2.c.WriteBack(victim.Line)
				if wbVictim.Valid && wbVictim.Dirty && meas {
					ctr.BusWrite++
					if m.memRec != nil {
						m.memRec.Record(wbVictim.Line, s.Core, memsys.Writeback)
					}
				}
			}
			m.l2Access(l2, ctr, s.Core, first, write, false, meas)
		}
		if meas {
			ctr.L1DAcc++
			if !hit {
				ctr.L1DMiss++
			}
		}
		return
	}
	misses := s.core.l1d.AccessRun(first, nLines, write, m.runScratch[:0])
	m.runScratch = misses
	for j := range misses {
		rm := &misses[j]
		if v := rm.Victim; v.Valid && v.Dirty {
			// Dirty L1 eviction drains into the L2.
			wbVictim := l2.c.WriteBack(v.Line)
			if wbVictim.Valid && wbVictim.Dirty && meas {
				ctr.BusWrite++
				if m.memRec != nil {
					m.memRec.Record(wbVictim.Line, s.Core, memsys.Writeback)
				}
			}
		}
		m.l2Access(l2, ctr, s.Core, rm.Line, write, false, meas)
	}
	if meas {
		ctr.L1DAcc += nLines
		ctr.L1DMiss += uint64(len(misses))
	}
}

func (m *Machine) l2ForCore(coreID int) *l2State {
	return m.l2s[coreID/m.Plat.CoresPerL2]
}

// l2Access performs the shared-L2 lookup and, on a miss, the memory fetch,
// prefetcher consultation and writeback accounting. The caller resolves the
// stream's L2 cluster once per event rather than once per line; core is the
// issuing core, attributed to every memory-system transaction so scheduling
// policies can classify cores.
func (m *Machine) l2Access(l2 *l2State, ctr *cpu.Counters, core int, line uint64, write, ifetch, meas bool) {
	hit, wasPrefetched, victim := l2.c.Access(line, write)
	if hit {
		if meas {
			switch {
			case ifetch:
				ctr.L2HitIF++
			case write:
				ctr.L2HitWr++
			default:
				ctr.L2HitRd++
			}
			if wasPrefetched {
				ctr.PfHit++
			}
		}
		return
	}
	if meas {
		switch {
		case ifetch:
			ctr.L2MissIF++
		case write:
			ctr.L2MissWr++
		default:
			ctr.L2MissRd++
		}
		ctr.BusRead++
		if m.memRec != nil {
			m.memRec.Record(line, core, memsys.Read)
		}
		if victim.Valid && victim.Dirty {
			ctr.BusWrite++
			if m.memRec != nil {
				m.memRec.Record(victim.Line, core, memsys.Writeback)
			}
		}
	}
	if l2.pf != nil {
		for _, pl := range l2.pf.OnMiss(line) {
			installed, v := l2.c.Install(pl, true)
			if installed && meas {
				ctr.BusPf++
				if m.memRec != nil {
					m.memRec.Record(pl, core, memsys.Prefetch)
					if v.Valid && v.Dirty {
						m.memRec.Record(v.Line, core, memsys.Writeback)
					}
				}
				if v.Valid && v.Dirty {
					ctr.BusWrite++
				}
			}
		}
	}
}
