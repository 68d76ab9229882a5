package memsys

import (
	"fmt"
	"math"
	"math/bits"

	"webmm/internal/mem"
)

// DRAMConfig sizes a DRAM memory system. The zero value of any field means
// "use the default" (see defaultDRAMConfig), so callers normally set only
// Policy.
type DRAMConfig struct {
	// Geometry: Channels × RanksPerChannel × BanksPerRank independent
	// banks, each with one row buffer of RowBytes.
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	RowBytes        uint64

	// Window is the per-bank queue depth at which pending requests are
	// scheduled and replayed, 1..64 (the replay tracks a window as the
	// bits of one uint64). Larger windows give the policy more reordering
	// freedom; 1 degenerates to FCFS regardless of policy.
	Window int

	// Policy names the scheduling policy (DefaultPolicy when empty).
	Policy PolicyName

	// Service-time factors relative to the platform's unloaded memory
	// latency: an open-row hit skips the activate, a closed bank pays it
	// (1.0 ≡ the bus model's flat latency), a conflict pays a precharge
	// on top.
	HitFactor      float64
	ClosedFactor   float64
	ConflictFactor float64
}

// defaultDRAMConfig is a modest DDR2-era part matching the paper's machines:
// 2 channels × 2 ranks × 8 banks (32 banks), 8 KiB rows, and the canonical
// ~0.55 / 1.0 / 1.4 hit/closed/conflict timing ratio (tCL vs tRCD+tCL vs
// tRP+tRCD+tCL).
var defaultDRAMConfig = DRAMConfig{
	Channels:        2,
	RanksPerChannel: 2,
	BanksPerRank:    8,
	RowBytes:        8 << 10,
	Window:          32,
	Policy:          DefaultPolicy,
	HitFactor:       0.55,
	ClosedFactor:    1.0,
	ConflictFactor:  1.4,
}

// rowClosed marks a precharged bank (no open row).
const rowClosed int64 = -1

// maxWindow is the widest scheduling window: the replay tracks a window's
// pending slots as the bits of one uint64.
const maxWindow = 64

// maxBanks bounds the geometry so a bad config is an error, not an
// allocation failure: far beyond any real controller's bank count.
const maxBanks = 1 << 12

// geometry is everything a window store's contents depend on: the address
// map (channels, ranks, banks per rank, row size), the window depth and the
// core count. DRAM models that agree on it fill identical windows from one
// stream, whatever their policies, so FanOut gives them one store.
type geometry struct {
	channels, ranks, banks int
	rowBytes               uint64
	window, cores          int
}

// bank is one DRAM bank's window: a fixed run of request slots held as two
// columns, filled in arrival order (slot index = age) and drained all at
// once when full.
type bank struct {
	n     int     // occupied slots
	rows  []int64 // each pending request's row
	cores []int32 // each pending request's issuing core
}

// windows is a window store: the bank windows one miss stream fills, shared
// by every DRAM model that replays that stream (its members). Record maps
// each line, fills its bank's slot and counts its kind once for all of
// them; a full window builds its index once, and then each member replays
// it under its own policy, open rows and scheduler state. Window contents
// and fill order depend only on the geometry, never on a policy, so every
// member replays the very windows, in the very order, it would have filled
// alone. A lone model is a store of one member.
type windows struct {
	geo     geometry
	nBanks  int
	members *DRAM // the first member; the others follow DRAM.next

	// The address map as shifts and masks (the geometry is powers of
	// two): channel = line & chanMask, rowGlobal = line >> rowShift, bank
	// = channel<<bankBits | rowGlobal&bankMask, row = rowGlobal >> bankBits.
	chanMask, bankMask uint64
	rowShift, bankBits int

	// Allocated by the first Record, so a model that FanOut moves onto a
	// sibling's store never allocates windows of its own.
	banks []bank

	// Accumulated over all recorded requests, which no policy moves:
	// requests by Kind, and the queue depths they found on arrival.
	kinds     [Prefetch + 1]uint64
	queueSum  uint64
	maxQueue  int
	finalized bool // partial windows flushed; recording is over

	// The index of the window being replayed, built once for all
	// members: coreMask[c] holds core c's slots, slot i targets the
	// window's distinct row rowID[i], and distinct row k has the value
	// rowVal[k] and the slots rowMask[k], for k < nRows.
	coreMask []uint64
	nRows    int
	rowID    [maxWindow]uint8
	rowVal   [maxWindow]int64
	rowMask  [maxWindow]uint64
	serial   uint64 // windows indexed so far
	rowHint  [1 << rowHintBits]rowHint
}

// rowHint is one entry of a store's row hash table: the distinct row id
// that window number window last gave a row with this hash.
type rowHint struct {
	window uint64
	id     uint8
}

// rowHintBits sizes the row hash table at twice the widest window.
const rowHintBits = 7

// DRAM models a multi-bank memory behind the platform's transfer link. It
// records the measured miss stream into per-bank windows, replays each
// window under the configured scheduling policy to classify row-buffer
// outcomes and per-core queueing, and folds the result into the solver's
// latency multiplier:
//
//	multiplier(core) = RowFactor × 1/(1-u) × CoreFactor(core)
//
// where RowFactor is the request-weighted mean service factor (1.0 when
// every access pays the closed-row timing — the bus model's assumption) and
// CoreFactor redistributes latency between cores with request-weighted mean
// 1.0, so the aggregate bandwidth story stays the paper's queueing model.
//
// The windows live in a store (windows) that FanOut may share with sibling
// models of the same geometry; everything a policy decides — open rows,
// scheduler state, row outcomes and per-core scores — stays the model's own.
type DRAM struct {
	cfg    DRAMConfig
	link   Link
	nCores int
	sched  scheduler

	st      *windows // the store this model replays: own, or a sibling's
	own     windows  // embedded, so joining a sibling's store discards no allocation
	next    *DRAM    // the next member of st
	openRow []int64  // each bank's open row under this model's policy

	// Accumulated over all serviced requests.
	hits, closed, conflicts uint64
	coreScore               []float64
	coreReqs                []uint64

	// Lazily finalized on the first solver query: the store flushes its
	// partial windows and the derived factors freeze.
	finalized   bool
	rowFactor   float64
	coreFactors []float64
	stats       *Stats
}

// NewDRAM builds a DRAM memory system behind the given link for nCores
// cores. Zero-valued cfg fields take defaults; the policy name is validated
// here so every entry point gets the registry's helpful error.
func NewDRAM(cfg DRAMConfig, link Link, nCores int) (*DRAM, error) {
	def := defaultDRAMConfig
	if cfg.Channels == 0 {
		cfg.Channels = def.Channels
	}
	if cfg.RanksPerChannel == 0 {
		cfg.RanksPerChannel = def.RanksPerChannel
	}
	if cfg.BanksPerRank == 0 {
		cfg.BanksPerRank = def.BanksPerRank
	}
	if cfg.RowBytes == 0 {
		cfg.RowBytes = def.RowBytes
	}
	if cfg.Window == 0 {
		cfg.Window = def.Window
	}
	if cfg.Policy == "" {
		cfg.Policy = def.Policy
	}
	if cfg.HitFactor == 0 {
		cfg.HitFactor = def.HitFactor
	}
	if cfg.ClosedFactor == 0 {
		cfg.ClosedFactor = def.ClosedFactor
	}
	if cfg.ConflictFactor == 0 {
		cfg.ConflictFactor = def.ConflictFactor
	}
	if _, err := PolicyByName(cfg.Policy); err != nil {
		return nil, err
	}
	nBanks := 1
	for _, n := range []int{cfg.Channels, cfg.RanksPerChannel, cfg.BanksPerRank} {
		if n < 1 || n > maxBanks/nBanks || !isPow2(uint64(n)) {
			return nil, fmt.Errorf("memsys: DRAM geometry %d channels × %d ranks × %d banks: each must be a power of two and the product at most %d",
				cfg.Channels, cfg.RanksPerChannel, cfg.BanksPerRank, maxBanks)
		}
		nBanks *= n
	}
	linesPerRow := cfg.RowBytes / mem.LineSize
	if cfg.RowBytes%mem.LineSize != 0 || !isPow2(linesPerRow) {
		return nil, fmt.Errorf("memsys: row size %d not a power-of-two multiple of the %d-byte line", cfg.RowBytes, mem.LineSize)
	}
	if cfg.Window < 1 || cfg.Window > maxWindow {
		return nil, fmt.Errorf("memsys: scheduling window %d outside 1..%d", cfg.Window, maxWindow)
	}
	// ATLAS's class rule needs attained service totally ordered: no NaN.
	for _, f := range []float64{cfg.HitFactor, cfg.ClosedFactor, cfg.ConflictFactor} {
		if !(f > 0) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("memsys: service factors hit %v, closed %v, conflict %v: each must be positive and finite",
				cfg.HitFactor, cfg.ClosedFactor, cfg.ConflictFactor)
		}
	}
	if nCores < 1 {
		return nil, fmt.Errorf("memsys: nCores %d out of range", nCores)
	}
	d := &DRAM{
		cfg:       cfg,
		link:      link,
		nCores:    nCores,
		sched:     newScheduler(cfg.Policy, nCores),
		openRow:   make([]int64, nBanks),
		coreScore: make([]float64, nCores),
		coreReqs:  make([]uint64, nCores),
	}
	for i := range d.openRow {
		d.openRow[i] = rowClosed
	}
	d.st = &d.own
	d.own.geo = geometry{cfg.Channels, cfg.RanksPerChannel, cfg.BanksPerRank, cfg.RowBytes, cfg.Window, nCores}
	d.own.nBanks = nBanks
	d.own.members = d
	d.own.chanMask = uint64(cfg.Channels) - 1
	d.own.bankMask = uint64(nBanks/cfg.Channels) - 1
	d.own.rowShift = bits.TrailingZeros64(uint64(cfg.Channels) * linesPerRow)
	d.own.bankBits = bits.TrailingZeros64(uint64(nBanks / cfg.Channels))
	return d, nil
}

func isPow2(n uint64) bool { return n != 0 && n&(n-1) == 0 }

func (d *DRAM) Name() string { return "dram/" + string(d.cfg.Policy) }

// Recorder returns the model's window store, which records for every
// member of the store at once.
func (d *DRAM) Recorder() Recorder { return d.st }
func (d *DRAM) Link() Link         { return d.link }

// Record records one bus transaction into the model's store (for every
// member of it, when FanOut grouped the model with siblings).
func (d *DRAM) Record(line uint64, core int, kind Kind) { d.st.Record(line, core, kind) }

// join moves a lone model that has recorded nothing onto the store of the
// first other model in sibs with its geometry, if that store has recorded
// nothing either; the move allocates nothing. FanOut calls it for each
// model with the ones before it.
func (d *DRAM) join(sibs []Model) {
	if d.st != &d.own || d.own.members != d || !d.own.fresh() {
		return
	}
	for _, m := range sibs {
		if p, ok := m.(*DRAM); ok && p != d && p.st.geo == d.own.geo && p.st.fresh() {
			d.st, d.next, p.st.members = p.st, p.st.members, d
			return
		}
	}
}

// fresh reports whether the store has neither recorded nor flushed.
func (s *windows) fresh() bool { return s.banks == nil && !s.finalized }

// Record maps one bus transaction to its bank and row and writes it into
// the bank's next window slot; when the window fills, every member replays
// it. The address map stripes lines across channels and consecutive rows
// across a channel's banks, so sequential sweeps enjoy row locality while
// independent heaps land on independent banks.
func (s *windows) Record(line uint64, core int, kind Kind) {
	if s.finalized {
		// Recording after the solver started reading would silently skew
		// the frozen factors; the machine never does this.
		panic("memsys: Record after finalize")
	}
	if s.banks == nil {
		s.alloc()
	}
	rowGlobal := line >> s.rowShift
	i := (line&s.chanMask)<<s.bankBits | rowGlobal&s.bankMask
	b := &s.banks[i]
	b.rows[b.n] = int64(rowGlobal >> s.bankBits)
	b.cores[b.n] = int32(core)
	b.n++
	s.kinds[min(kind, Prefetch)]++ // unknown kinds count as prefetches
	if b.n == len(b.rows) {
		s.service(int(i))
	}
}

// alloc carves every bank's window slots out of one allocation per column.
func (s *windows) alloc() {
	w := s.geo.window
	s.banks = make([]bank, s.nBanks)
	rows, cores := make([]int64, s.nBanks*w), make([]int32, s.nBanks*w)
	for i := range s.banks {
		lo, hi := i*w, (i+1)*w
		s.banks[i] = bank{rows: rows[lo:hi:hi], cores: cores[lo:hi:hi]}
	}
	s.coreMask = make([]uint64, s.geo.cores)
}

// service indexes bank i's window once — its queue-depth samples, per-core
// slot masks and distinct rows — then has every member replay it, and
// empties it.
func (s *windows) service(i int) {
	b := &s.banks[i]
	rows, cores := b.rows[:b.n], b.cores[:b.n]
	// The window's requests found depths 1..n on arrival.
	s.queueSum += uint64(b.n * (b.n + 1) / 2)
	s.maxQueue = max(s.maxQueue, b.n)
	for j, c := range cores {
		s.coreMask[c] |= 1 << j
	}
	// Each row's hash entry (Fibonacci hashing) holds the distinct row last
	// found there and the window that found it. Every row a window has
	// seen leaves its entry stamped with that window, so an entry stamped
	// earlier means a new row, and only a collision falls back to a scan.
	s.serial++
	vals, masks, k := &s.rowVal, &s.rowMask, 0
	for j, r := range rows {
		e := &s.rowHint[uint64(r)*0x9e3779b97f4a7c15>>(64-rowHintBits)]
		id := int(e.id)
		switch {
		case e.window != s.serial:
			id = k
		case vals[id] != r:
			id = 0
			for id < k && vals[id] != r {
				id++
			}
		}
		if id == k {
			vals[k], masks[k] = r, 0
			k++
		}
		*e = rowHint{s.serial, uint8(id)}
		masks[id] |= 1 << j
		s.rowID[j] = uint8(id)
	}
	s.nRows = k
	for d := s.members; d != nil; d = d.next {
		d.replay(s, i, cores)
	}
	clear(s.coreMask)
	b.n = 0
}

// replay drains the store's indexed window of bank i under the model's
// policy. Slot order is arrival order, so each pick — the policy's class
// rule, then open-row hits, then oldest — is the lowest set bit of
// eligible&hits, or of eligible when none of those hits (DESIGN.md §10
// argues this is exactly the comparator order). The open row's hits are
// its distinct row's slot mask; served slots stay set in it, and eligible
// masks never contain them. The class is cached between picks and
// recomputed only when served reports changed marks or the cached class
// has no pending slot left (DESIGN.md §10 argues this is exact too). Each
// service is classified against the open row, charged its service factor
// plus the time already elapsed in the window (bank-level queueing), and
// moves the row buffer.
func (d *DRAM) replay(s *windows, i int, cores []int32) {
	open, openID := d.openRow[i], -1
	for k, r := range s.rowVal[:s.nRows] {
		if r == open {
			openID = k
			break
		}
	}
	var hits, class uint64
	if openID >= 0 {
		hits = s.rowMask[openID]
	}
	pending := uint64(1)<<len(cores) - 1
	elapsed := 0.0
	for pending != 0 {
		eligible := class & pending
		if eligible == 0 {
			class = d.sched.eligible(pending, s.coreMask)
			eligible = class
		}
		pick := eligible & hits
		if pick == 0 {
			pick = eligible
		}
		j := bits.TrailingZeros64(pick)
		pending &^= 1 << j
		id, core := int(s.rowID[j]), cores[j]
		var units float64
		switch {
		case id == openID:
			units = d.cfg.HitFactor
			d.hits++
		case open == rowClosed:
			units = d.cfg.ClosedFactor
			d.closed++
		default:
			units = d.cfg.ConflictFactor
			d.conflicts++
		}
		if id != openID {
			openID, open, hits = id, s.rowVal[id], s.rowMask[id]
		}
		d.coreScore[core] += elapsed + units
		d.coreReqs[core]++
		elapsed += units
		if d.sched.served(core, units) {
			class = 0
		}
	}
	d.openRow[i] = open
}

// flush replays every partial window, once for all members, and ends
// recording. The first member to finalize calls it.
func (s *windows) flush() {
	if s.finalized {
		return
	}
	s.finalized = true
	for i := range s.banks {
		if s.banks[i].n > 0 {
			s.service(i)
		}
	}
}

// finalize flushes the store's partial windows and freezes the derived
// factors. Called lazily by the first solver query; recording is over by
// then (the machine prices before it solves).
func (d *DRAM) finalize() {
	if d.finalized {
		return
	}
	d.finalized = true
	s := d.st
	s.flush()

	total := d.hits + d.closed + d.conflicts
	if total == 0 {
		d.rowFactor = 1
	} else {
		weighted := float64(d.hits)*d.cfg.HitFactor +
			float64(d.closed)*d.cfg.ClosedFactor +
			float64(d.conflicts)*d.cfg.ConflictFactor
		d.rowFactor = weighted / (float64(total) * d.cfg.ClosedFactor)
	}

	d.coreFactors = make([]float64, d.nCores)
	var totalScore float64
	var totalReqs uint64
	for c := 0; c < d.nCores; c++ {
		totalScore += d.coreScore[c]
		totalReqs += d.coreReqs[c]
	}
	for c := 0; c < d.nCores; c++ {
		if d.coreReqs[c] == 0 || totalScore == 0 {
			d.coreFactors[c] = 1
			continue
		}
		mean := totalScore / float64(totalReqs)
		d.coreFactors[c] = (d.coreScore[c] / float64(d.coreReqs[c])) / mean
	}

	st := &Stats{
		Model:         "dram",
		Policy:        string(d.cfg.Policy),
		Banks:         s.nBanks,
		Reads:         s.kinds[Read],
		Writebacks:    s.kinds[Writeback],
		Prefetches:    s.kinds[Prefetch],
		RowHits:       d.hits,
		RowClosed:     d.closed,
		RowConflicts:  d.conflicts,
		MaxQueueDepth: s.maxQueue,
		RowFactor:     d.rowFactor,
		CoreFactors:   d.coreFactors,
	}
	if n := st.Total(); n > 0 {
		// One queue-depth sample per recorded request.
		st.AvgQueueDepth = float64(s.queueSum) / float64(n)
	}
	d.stats = st
}

func (d *DRAM) Utilization(busTxns uint64, wallCycles float64) float64 {
	return d.link.Utilization(busTxns, wallCycles)
}

func (d *DRAM) LatencyMultiplier(util float64) float64 {
	d.finalize()
	return d.rowFactor * d.link.LatencyMultiplier(util)
}

func (d *DRAM) CoreFactor(core int) float64 {
	d.finalize()
	if core < 0 || core >= len(d.coreFactors) {
		return 1
	}
	return d.coreFactors[core]
}

func (d *DRAM) Stats() *Stats {
	d.finalize()
	return d.stats
}
