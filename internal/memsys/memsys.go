// Package memsys is the memory-system seam below the cache hierarchy.
//
// The paper's model ends at a finite-bandwidth bus: every L2 miss is one bus
// transaction and queueing inflates memory latency by 1/(1-u) (Link). That
// is the right first-order story for the 2009 machines, but it cannot ask how
// allocator placement interacts with DRAM row-buffer locality or how a
// memory scheduler arbitrates between cores. This package turns the memory
// system into a pluggable design point, the same way internal/apprt does for
// allocators: a Model interface that the solver consults, a Bus
// implementation that reproduces the paper's bus bit-for-bit (the default),
// and a DRAM implementation (dram.go) with channels/ranks/banks, row-buffer
// state and a registry of scheduling policies (policy.go).
//
// The seam is deliberately analytic-solver shaped. A Model does not return
// per-request latencies; it observes the measured miss stream through a
// Recorder and then answers three questions the fixed point needs:
// utilization for a given wall time, the average latency multiplier that
// utilization implies, and a per-core relative factor (so policies that
// favour some cores can stretch the others). The Bus model answers 1/(1-u),
// 1.0 — exactly the numbers the solver used before this seam existed.
package memsys

import "slices"

// Kind classifies one memory-system transaction. The three kinds mirror the
// three bus counters (BusRead/BusWrite/BusPf) so a Recorder sees exactly the
// traffic the bus model bills for.
type Kind uint8

const (
	// Read is a demand fetch (data or instruction) that missed the L2.
	Read Kind = iota
	// Writeback is a dirty line evicted from the L2.
	Writeback
	// Prefetch is a hardware-prefetcher line install.
	Prefetch
)

// Recorder observes the measured miss traffic, one call per bus transaction,
// in deterministic pricing order. line is the cache-line number (address /
// line size) and core the issuing core — per-core attribution is what lets
// policies like TCM and ATLAS classify cores. A nil Recorder (the bus
// model's) means the machine skips recording entirely.
type Recorder interface {
	Record(line uint64, core int, kind Kind)
}

// FanOut returns one Recorder that hands every Record to each model's
// recorder in turn, so one pricing pass of a cores-core machine can feed
// several memory systems. A DRAM model built for fewer cores gets only the
// records of its own cores, still in pricing order; when the machine's
// leading cores price exactly as a machine of the model's width would
// (whole L2 clusters, DESIGN.md §10), those are the records it would have
// made. DRAM models that share a geometry (address map, window and core
// count) and have recorded nothing yet are grouped first: they share one
// window store, which maps, fills and indexes each window once and has
// every member replay it under its own policy (dram.go). Recording into
// any member then records into the whole group. Models that record
// nothing (the bus) are skipped. With no recorder left it returns nil, and
// with one that takes every core it returns that recorder itself, so a
// lone model records exactly as it would on its own.
func FanOut(models []Model, cores int) Recorder {
	var recs fanOut
	for i, m := range models {
		if d, ok := m.(*DRAM); ok {
			d.join(models[:i])
		}
		r := m.Recorder()
		if r == nil {
			continue
		}
		n := cores
		if w, ok := r.(*windows); ok {
			if slices.ContainsFunc(recs, func(e coreRecorder) bool { return e.rec == r }) {
				continue // a grouped DRAM: its store is already fed
			}
			n = min(n, w.geo.cores)
		}
		recs = append(recs, coreRecorder{r, n})
	}
	switch {
	case len(recs) == 0:
		return nil
	case len(recs) == 1 && recs[0].cores == cores:
		return recs[0].rec
	}
	return recs
}

// coreRecorder is one FanOut member: a recorder and the cores below which
// it takes records.
type coreRecorder struct {
	rec   Recorder
	cores int
}

type fanOut []coreRecorder

func (f fanOut) Record(line uint64, core int, kind Kind) {
	for _, e := range f {
		if core < e.cores {
			e.rec.Record(line, core, kind)
		}
	}
}

// Model is the memory system below the caches. The solver calls Utilization
// and LatencyMultiplier inside its fixed-point loop and CoreFactor once per
// core; implementations must make all three deterministic and stable across
// calls once recording has stopped (the machine records only while pricing,
// which completes before Solve runs).
type Model interface {
	// Name identifies the model in results ("bus", "dram/frfcfs", ...).
	Name() string

	// Recorder returns the model's miss-traffic observer, or nil if the
	// model does not need per-request detail (the bus model).
	Recorder() Recorder

	// Link exposes the bandwidth parameters of the channel connecting the
	// chip to memory. Every model has one — DRAM banks sit behind the same
	// finite link the bus model prices — and the solver needs its MaxUtil
	// cap for reporting.
	Link() Link

	// Utilization returns the fraction of link capacity consumed by
	// busTxns transactions over wallCycles cycles (uncapped).
	Utilization(busTxns uint64, wallCycles float64) float64

	// LatencyMultiplier converts a utilization into the average factor by
	// which the memory system inflates unloaded memory latency.
	LatencyMultiplier(util float64) float64

	// CoreFactor scales the latency multiplier for one core relative to
	// the average (request-weighted mean 1.0). The bus serves cores
	// indiscriminately, so its factor is always exactly 1; a scheduling
	// policy that favours latency-sensitive cores returns <1 for them and
	// >1 for the cores it delays.
	CoreFactor(core int) float64

	// Stats returns the model's observed statistics, or nil when it kept
	// none (the bus model). The pointer lands in machine.Result under
	// `json:",omitempty"`, so a nil here is what keeps default-path result
	// fingerprints byte-identical to the pre-seam encoding.
	Stats() *Stats
}

// Link describes the shared front-side bus or memory interconnect whose
// finite bandwidth is the paper's central multicore bottleneck.
//
// The paper (Section 1) attributes the region allocator's 8-core slowdown to
// "hidden costs of increased bus traffics": every bus transaction moves one
// cache line, and when the aggregate demand of all cores approaches the
// link's transfer capacity, memory latency inflates for everyone. Link models
// that with an open queueing approximation: the effective memory latency is
// the unloaded latency times 1/(1-u), where u is link utilization, capped so
// the fixed-point solve stays stable.
type Link struct {
	// BytesPerCycle is the transfer capacity per core-clock cycle.
	// (Expressing bandwidth in core cycles keeps the solver unit-free:
	// utilization = busBytes / (BytesPerCycle * wallCycles).)
	BytesPerCycle float64
	// BytesPerTxn is the payload of one bus transaction (a cache line).
	BytesPerTxn float64
	// MaxUtil caps utilization in the queueing formula; beyond it the
	// link is saturated and latency is pinned at the cap's multiplier.
	MaxUtil float64
}

// Utilization returns the fraction of link capacity consumed by busTxns
// transactions over wallCycles cycles (uncapped; may exceed 1 when the
// offered load is infeasible, which the solver resolves by stretching time).
func (l Link) Utilization(busTxns uint64, wallCycles float64) float64 {
	if wallCycles <= 0 {
		return l.MaxUtil
	}
	return float64(busTxns) * l.BytesPerTxn / (l.BytesPerCycle * wallCycles)
}

// LatencyMultiplier converts a utilization into the factor by which queueing
// inflates memory latency: 1/(1-u) with u capped at MaxUtil.
func (l Link) LatencyMultiplier(util float64) float64 {
	u := util
	if u < 0 {
		u = 0
	}
	if u > l.MaxUtil {
		u = l.MaxUtil
	}
	return 1 / (1 - u)
}

// Bus adapts the paper's shared-bus model to the Model interface. It is the
// default memory system of both platforms: no recorder, no stats, core
// factor exactly 1 — the solver's arithmetic is bit-identical to consulting
// the Link directly.
type Bus struct {
	link Link
}

// NewBus wraps a link as the default memory system.
func NewBus(link Link) Bus { return Bus{link: link} }

func (b Bus) Name() string                { return "bus" }
func (b Bus) Recorder() Recorder          { return nil }
func (b Bus) Link() Link                  { return b.link }
func (b Bus) Stats() *Stats               { return nil }
func (b Bus) CoreFactor(core int) float64 { return 1 }

func (b Bus) Utilization(busTxns uint64, wallCycles float64) float64 {
	return b.link.Utilization(busTxns, wallCycles)
}

func (b Bus) LatencyMultiplier(util float64) float64 {
	return b.link.LatencyMultiplier(util)
}

// Stats is what a stat-keeping memory system observed over the measured
// rounds. It is embedded (as a pointer) in machine.Result and serialized
// into cell results, so every field must be deterministic for a given seed.
type Stats struct {
	// Model and Policy identify what produced the numbers.
	Model  string
	Policy string

	// Banks is the total bank count (channels × ranks × banks/rank).
	Banks int

	// Requests by kind.
	Reads      uint64
	Writebacks uint64
	Prefetches uint64

	// Row-buffer outcomes. RowHits hit the open row, RowClosed found the
	// bank precharged, RowConflicts had to close another row first.
	RowHits      uint64
	RowClosed    uint64
	RowConflicts uint64

	// Queue pressure: depth of the issuing bank's pending queue sampled at
	// every enqueue (average and maximum).
	AvgQueueDepth float64
	MaxQueueDepth int

	// RowFactor is the request-weighted mean service-time factor relative
	// to a closed-row access (1.0 ≡ the bus model's flat latency); it is
	// the factor the model folds into LatencyMultiplier.
	RowFactor float64

	// CoreFactors are the per-core relative latency factors the scheduler
	// produced (request-weighted mean 1.0). Index = core id.
	CoreFactors []float64 `json:",omitempty"`
}

// Total returns the total request count.
func (s *Stats) Total() uint64 { return s.Reads + s.Writebacks + s.Prefetches }

// RowHitRate returns the fraction of requests that hit an open row.
func (s *Stats) RowHitRate() float64 {
	if t := s.Total(); t > 0 {
		return float64(s.RowHits) / float64(t)
	}
	return 0
}

// RowConflictRate returns the fraction of requests that closed another row.
func (s *Stats) RowConflictRate() float64 {
	if t := s.Total(); t > 0 {
		return float64(s.RowConflicts) / float64(t)
	}
	return 0
}
