package memsys

import "webmm/internal/mem"

// refDRAM is the window replay DRAM first shipped with, kept as the
// differential oracle for the slot-and-bitmask replay: every pending
// request a struct in an arrival-ordered slice, every pick a linear scan
// under a per-policy comparator, every service a slice shift. It shares
// only NewDRAM's config defaults and the policies' served state updates
// (newScheduler) with production; the address map, ordering, row
// classification, queue statistics and the final factors are all its own.
type refDRAM struct {
	cfg             DRAMConfig
	sched           scheduler // served() only; pick is refPick below
	banks           []refBank
	linesPerRow     uint64
	banksPerChannel int
	seq             uint64

	reads, writebacks, prefetches uint64
	hits, closed, conflicts       uint64
	queueSum, queueSamples        uint64
	maxQueue                      int
	coreScore                     []float64
	coreReqs                      []uint64
}

type refRequest struct {
	row  int64
	seq  uint64
	core int32
}

type refBank struct {
	openRow int64
	pending []refRequest
}

// newRefDRAM takes its configuration, defaults applied, from NewDRAM;
// callers pass configurations NewDRAM accepts.
func newRefDRAM(cfg DRAMConfig, nCores int) *refDRAM {
	d, err := NewDRAM(cfg, Link{}, nCores)
	if err != nil {
		panic(err)
	}
	cfg = d.cfg
	r := &refDRAM{
		cfg:             cfg,
		sched:           newScheduler(cfg.Policy, nCores),
		banks:           make([]refBank, cfg.Channels*cfg.RanksPerChannel*cfg.BanksPerRank),
		linesPerRow:     cfg.RowBytes / mem.LineSize,
		banksPerChannel: cfg.RanksPerChannel * cfg.BanksPerRank,
		coreScore:       make([]float64, nCores),
		coreReqs:        make([]uint64, nCores),
	}
	for i := range r.banks {
		r.banks[i].openRow = rowClosed
	}
	return r
}

func (r *refDRAM) Record(line uint64, core int, kind Kind) {
	ch := int(line % uint64(r.cfg.Channels))
	rowGlobal := line / uint64(r.cfg.Channels) / r.linesPerRow
	bankID := ch*r.banksPerChannel + int(rowGlobal%uint64(r.banksPerChannel))
	row := int64(rowGlobal / uint64(r.banksPerChannel))

	b := &r.banks[bankID]
	b.pending = append(b.pending, refRequest{row: row, seq: r.seq, core: int32(core)})
	r.seq++
	switch kind {
	case Read:
		r.reads++
	case Writeback:
		r.writebacks++
	default:
		r.prefetches++
	}
	depth := len(b.pending)
	r.queueSum += uint64(depth)
	r.queueSamples++
	if depth > r.maxQueue {
		r.maxQueue = depth
	}
	if depth >= r.cfg.Window {
		r.serviceWindow(b)
	}
}

func (r *refDRAM) serviceWindow(b *refBank) {
	elapsed := 0.0
	for len(b.pending) > 0 {
		idx := r.refPick(b.pending, b.openRow)
		q := b.pending[idx]
		var units float64
		switch {
		case q.row == b.openRow:
			units = r.cfg.HitFactor
			r.hits++
		case b.openRow == rowClosed:
			units = r.cfg.ClosedFactor
			r.closed++
		default:
			units = r.cfg.ConflictFactor
			r.conflicts++
		}
		b.openRow = q.row
		r.coreScore[q.core] += elapsed + units
		r.coreReqs[q.core]++
		elapsed += units
		r.sched.served(q.core, units)
		b.pending = append(b.pending[:idx], b.pending[idx+1:]...)
	}
}

// refPick is the policies' original comparators: lexicographic on
// (policy class, !rowHit, seq), scanned by refPickBest.
func (r *refDRAM) refPick(pending []refRequest, openRow int64) int {
	hit := func(i int) bool { return pending[i].row == openRow }
	rowFirst := func(a, b int) bool {
		if hit(a) != hit(b) {
			return hit(a)
		}
		return pending[a].seq < pending[b].seq
	}
	switch s := r.sched.(type) {
	case *frfcfs:
		return refPickBest(pending, rowFirst)
	case *atlas:
		return refPickBest(pending, func(x, y int) bool {
			ax, ay := s.attained[pending[x].core], s.attained[pending[y].core]
			if ax != ay {
				return ax < ay
			}
			return rowFirst(x, y)
		})
	case *tcm:
		return refPickBest(pending, func(a, b int) bool {
			ba, bb := s.bwHeavy[pending[a].core], s.bwHeavy[pending[b].core]
			if ba != bb {
				return !ba
			}
			return rowFirst(a, b)
		})
	case *bliss:
		return refPickBest(pending, func(x, y int) bool {
			bx, by := s.blacklisted[pending[x].core], s.blacklisted[pending[y].core]
			if bx != by {
				return !bx
			}
			return rowFirst(x, y)
		})
	}
	panic("refPick: unknown scheduler")
}

// refPickBest scans pending for the request with the lowest key; ties
// break to the earlier index, the older request.
func refPickBest(pending []refRequest, less func(a, b int) bool) int {
	best := 0
	for i := 1; i < len(pending); i++ {
		if less(i, best) {
			best = i
		}
	}
	return best
}

// finish flushes partial windows and derives Stats exactly as
// DRAM.finalize does.
func (r *refDRAM) finish() *Stats {
	for i := range r.banks {
		if len(r.banks[i].pending) > 0 {
			r.serviceWindow(&r.banks[i])
		}
	}
	rowFactor := 1.0
	if total := r.hits + r.closed + r.conflicts; total > 0 {
		weighted := float64(r.hits)*r.cfg.HitFactor +
			float64(r.closed)*r.cfg.ClosedFactor +
			float64(r.conflicts)*r.cfg.ConflictFactor
		rowFactor = weighted / (float64(total) * r.cfg.ClosedFactor)
	}
	var totalScore float64
	var totalReqs uint64
	for c := range r.coreScore {
		totalScore += r.coreScore[c]
		totalReqs += r.coreReqs[c]
	}
	factors := make([]float64, len(r.coreScore))
	for c := range factors {
		if r.coreReqs[c] == 0 || totalScore == 0 {
			factors[c] = 1
			continue
		}
		mean := totalScore / float64(totalReqs)
		factors[c] = (r.coreScore[c] / float64(r.coreReqs[c])) / mean
	}
	s := &Stats{
		Model:         "dram",
		Policy:        string(r.cfg.Policy),
		Banks:         len(r.banks),
		Reads:         r.reads,
		Writebacks:    r.writebacks,
		Prefetches:    r.prefetches,
		RowHits:       r.hits,
		RowClosed:     r.closed,
		RowConflicts:  r.conflicts,
		MaxQueueDepth: r.maxQueue,
		RowFactor:     rowFactor,
		CoreFactors:   factors,
	}
	if r.queueSamples > 0 {
		s.AvgQueueDepth = float64(r.queueSum) / float64(r.queueSamples)
	}
	return s
}
