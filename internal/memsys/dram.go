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

// maxWindow is the widest scheduling window: serviceWindow tracks a
// window's pending slots as the bits of one uint64.
const maxWindow = 64

// maxBanks bounds the geometry so a bad config is an error, not an
// allocation failure: far beyond any real controller's bank count.
const maxBanks = 1 << 12

// bank is one DRAM bank: its open row and a fixed window of request slots
// held as two columns, filled in arrival order (slot index = age) and
// drained all at once when full.
type bank struct {
	openRow int64
	n       int     // occupied slots
	rows    []int64 // each pending request's row
	cores   []int32 // each pending request's issuing core
}

// DRAM models a multi-bank memory behind the platform's transfer link. It
// records the measured miss stream into per-bank queues, replays each queue
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
type DRAM struct {
	cfg    DRAMConfig
	link   Link
	nCores int
	sched  scheduler

	banks    []bank
	coreMask []uint64 // serviceWindow's per-core slot masks

	// The address map as shifts and masks (the geometry is powers of
	// two): channel = line & chanMask, rowGlobal = line >> rowShift, bank
	// = channel<<bankBits | rowGlobal&bankMask, row = rowGlobal >> bankBits.
	chanMask, bankMask uint64
	rowShift, bankBits int

	// Accumulated over all serviced requests.
	kinds                   [Prefetch + 1]uint64 // requests by Kind
	hits, closed, conflicts uint64
	queueSum                uint64
	maxQueue                int
	coreScore               []float64
	coreReqs                []uint64

	// Lazily finalized on the first solver query: partial windows flush
	// and the derived factors freeze.
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
		banks:     make([]bank, nBanks),
		coreMask:  make([]uint64, nCores),
		chanMask:  uint64(cfg.Channels) - 1,
		bankMask:  uint64(nBanks/cfg.Channels) - 1,
		rowShift:  bits.TrailingZeros64(uint64(cfg.Channels) * linesPerRow),
		bankBits:  bits.TrailingZeros64(uint64(nBanks / cfg.Channels)),
		coreScore: make([]float64, nCores),
		coreReqs:  make([]uint64, nCores),
	}
	// Every bank's window slots, carved out of one allocation per column.
	w := cfg.Window
	rows, cores := make([]int64, nBanks*w), make([]int32, nBanks*w)
	for i := range d.banks {
		lo, hi := i*w, (i+1)*w
		d.banks[i] = bank{openRow: rowClosed, rows: rows[lo:hi:hi], cores: cores[lo:hi:hi]}
	}
	return d, nil
}

func isPow2(n uint64) bool { return n != 0 && n&(n-1) == 0 }

func (d *DRAM) Name() string       { return "dram/" + string(d.cfg.Policy) }
func (d *DRAM) Recorder() Recorder { return d }
func (d *DRAM) Link() Link         { return d.link }

// Record maps one bus transaction to its bank and row and writes it into
// the bank's next window slot; when the window fills it is serviced. The
// address map stripes lines across channels and consecutive rows across a
// channel's banks, so sequential sweeps enjoy row locality while
// independent heaps land on independent banks.
func (d *DRAM) Record(line uint64, core int, kind Kind) {
	if d.finalized {
		// Recording after the solver started reading would silently skew
		// the frozen factors; the machine never does this.
		panic("memsys: Record after finalize")
	}
	rowGlobal := line >> d.rowShift
	b := &d.banks[(line&d.chanMask)<<d.bankBits|rowGlobal&d.bankMask]
	b.rows[b.n] = int64(rowGlobal >> d.bankBits)
	b.cores[b.n] = int32(core)
	b.n++
	d.kinds[min(kind, Prefetch)]++ // unknown kinds count as prefetches
	if b.n == len(b.rows) {
		d.serviceWindow(b)
	}
}

// serviceWindow drains one bank's window under the scheduling policy.
// Slot order is arrival order, so each pick — the policy's class rule,
// then open-row hits, then oldest — is the lowest set bit of
// eligible&hits, or of eligible when none of those hits (DESIGN.md §10
// argues this is exactly the comparator order). Each service is
// classified against the open row, charged its service factor plus the
// time already elapsed in the window (bank-level queueing), and moves the
// row buffer.
func (d *DRAM) serviceWindow(b *bank) {
	rows, cores := b.rows[:b.n], b.cores[:b.n]
	// The window's requests found depths 1..n on arrival.
	d.queueSum += uint64(b.n * (b.n + 1) / 2)
	d.maxQueue = max(d.maxQueue, b.n)
	for i, c := range cores {
		d.coreMask[c] |= 1 << i
	}
	pending := uint64(1)<<len(rows) - 1
	hits := rowSlots(rows, pending, b.openRow)
	elapsed := 0.0
	for pending != 0 {
		eligible := d.sched.eligible(pending, d.coreMask)
		pick := eligible & hits
		if pick == 0 {
			pick = eligible
		}
		i := bits.TrailingZeros64(pick)
		pending &^= 1 << i
		row, core := rows[i], cores[i]
		var units float64
		switch {
		case row == b.openRow:
			units = d.cfg.HitFactor
			d.hits++
		case b.openRow == rowClosed:
			units = d.cfg.ClosedFactor
			d.closed++
		default:
			units = d.cfg.ConflictFactor
			d.conflicts++
		}
		if row != b.openRow {
			b.openRow = row
			hits = rowSlots(rows, pending, row)
		}
		d.coreScore[core] += elapsed + units
		d.coreReqs[core]++
		elapsed += units
		d.sched.served(core, units)
	}
	for _, c := range cores {
		d.coreMask[c] = 0
	}
	b.n = 0
}

// rowSlots returns the slots of pending whose request targets row. Served
// slots may stay set in the result: eligible masks never contain them.
func rowSlots(rows []int64, pending uint64, row int64) uint64 {
	var m uint64
	for p := pending; p != 0; p &= p - 1 {
		if i := bits.TrailingZeros64(p); rows[i] == row {
			m |= 1 << i
		}
	}
	return m
}

// finalize flushes partial windows and freezes the derived factors. Called
// lazily by the first solver query; recording is over by then (the machine
// prices before it solves).
func (d *DRAM) finalize() {
	if d.finalized {
		return
	}
	d.finalized = true
	for i := range d.banks {
		if d.banks[i].n > 0 {
			d.serviceWindow(&d.banks[i])
		}
	}

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

	s := &Stats{
		Model:         "dram",
		Policy:        string(d.cfg.Policy),
		Banks:         len(d.banks),
		Reads:         d.kinds[Read],
		Writebacks:    d.kinds[Writeback],
		Prefetches:    d.kinds[Prefetch],
		RowHits:       d.hits,
		RowClosed:     d.closed,
		RowConflicts:  d.conflicts,
		MaxQueueDepth: d.maxQueue,
		RowFactor:     d.rowFactor,
		CoreFactors:   d.coreFactors,
	}
	if n := s.Total(); n > 0 {
		// One queue-depth sample per recorded request.
		s.AvgQueueDepth = float64(d.queueSum) / float64(n)
	}
	d.stats = s
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
