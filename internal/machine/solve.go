package machine

import (
	"fmt"
	"math"

	"webmm/internal/cpu"
	"webmm/internal/memsys"
	"webmm/internal/sim"
)

// ClassTime is the cycle and instruction attribution of one software
// component (the paper's Figure 6/11 breakdown).
type ClassTime struct {
	Cycles float64
	Instr  uint64
}

// Result is the solved outcome of a Run.
type Result struct {
	Platform string
	Cores    int
	Threads  int

	// Txns is the total number of measured transactions across streams.
	Txns uint64

	// WallCycles is the busy time of the slowest core; WallSeconds the
	// same in seconds at the platform clock.
	WallCycles  float64
	WallSeconds float64

	// Throughput is measured transactions per second.
	Throughput float64

	// BusUtil is the converged link utilization; BusMult the average
	// memory latency multiplier it implies. (The names predate the
	// memory-system seam and are kept for result compatibility; for the
	// bus model they mean exactly what they say.)
	BusUtil float64
	BusMult float64

	// Mem carries the memory system's observed statistics when the
	// platform runs one that keeps any (the DRAM model); nil — and absent
	// from the JSON encoding — for the default bus model, which is what
	// keeps pre-seam result fingerprints byte-identical.
	Mem *memsys.Stats `json:",omitempty"`

	// ByClass attributes cycles and instructions to memory management,
	// application, and OS work.
	ByClass [sim.NumClasses]ClassTime

	// Totals sums the hardware counters over all streams and classes;
	// ClassTotals keeps the per-class split.
	Totals      cpu.Counters
	ClassTotals [sim.NumClasses]cpu.Counters
}

// IPC returns retired instructions per attributed cycle over everything
// measured — the headline fidelity metric the sampled mode's error bound is
// stated against: both numerator and denominator come from the same measured
// rounds, so it is comparable between full and sampled runs.
func (r Result) IPC() float64 {
	var cycles float64
	for _, ct := range r.ByClass {
		cycles += ct.Cycles
	}
	if cycles == 0 {
		return 0
	}
	return float64(r.Totals.Instr) / cycles
}

// CyclesPerTxn returns total attributed cycles per measured transaction.
func (r Result) CyclesPerTxn() float64 {
	var total float64
	for _, ct := range r.ByClass {
		total += ct.Cycles
	}
	if r.Txns == 0 {
		return 0
	}
	return total / float64(r.Txns)
}

// ClassCyclesPerTxn returns the per-transaction cycles of one class.
func (r Result) ClassCyclesPerTxn(c sim.Class) float64 {
	if r.Txns == 0 {
		return 0
	}
	return r.ByClass[c].Cycles / float64(r.Txns)
}

// PerTxn divides a raw event count by the number of measured transactions.
func (r Result) PerTxn(count uint64) float64 {
	if r.Txns == 0 {
		return 0
	}
	return float64(count) / float64(r.Txns)
}

// Solve solves the machine against its platform's memory system at its
// full width (SolveMem with m.Plat.Mem and m.NCores).
func (m *Machine) Solve() Result { return m.SolveMem(m.Plat.Mem, m.NCores) }

// SolveMem converges the timing fixed point of the machine's first cores
// cores against the memory system msys: stalls depend on the memory latency
// multiplier, the multiplier depends on utilization, and utilization
// depends on wall time, which depends on stalls. The load counters never
// change, so damped iteration converges quickly. msys only reads what it
// recorded, so one priced machine can be solved against each model a
// memsys.FanOut fed.
//
// cores is the machine's width or a whole number of L2 clusters below it.
// The solve then reads only the leading Threads(cores) streams, which
// priced exactly as a cores-core machine's would: every stream draws its
// seed and address space by index, an L2 and its prefetcher serve one
// cluster, L1s and TLBs serve one core, and the round-robin restricted to
// those streams is the narrower machine's own order (DESIGN.md §10). A
// prefix that splits a cluster priced against streams the narrower
// machine would not have, so it panics.
//
// The memory system contributes two fixed, pre-converged quantities on top
// of the utilization feedback: an average service factor folded into
// LatencyMultiplier (row-buffer economics) and a per-core factor (scheduling
// favoritism) that scales each core's multiplier. Both are exactly 1 for the
// bus model, making this arithmetic bit-identical to the pre-seam solver.
func (m *Machine) SolveMem(msys memsys.Model, cores int) Result {
	p := m.Plat
	if cores < 1 || cores > m.NCores || (cores < m.NCores && cores%p.CoresPerL2 != 0) {
		panic(fmt.Sprintf("machine: cannot solve %d of %d cores: not a whole number of %d-core L2 clusters",
			cores, m.NCores, p.CoresPerL2))
	}
	streams := m.streams[:p.Threads(cores)]
	nStreams := len(streams)

	// Per-core relative latency factors are frozen before iteration; the
	// bus model returns exactly 1, and mult*1 is exact in IEEE arithmetic.
	coreFactor := make([]float64, cores)
	for c := range coreFactor {
		coreFactor[c] = msys.CoreFactor(c)
	}

	// Per-stream per-class instruction cycles are constant.
	instrCyc := make([][sim.NumClasses]float64, nStreams)
	var busTxns, totalTxns uint64
	var totals cpu.Counters
	var classTotals [sim.NumClasses]cpu.Counters
	for i, s := range streams {
		for cls := 0; cls < sim.NumClasses; cls++ {
			instrCyc[i][cls] = p.Core.InstrCycles(s.counters[cls])
			totals.Add(s.counters[cls])
			busTxns += s.counters[cls].BusTxns()
			classTotals[cls].Add(s.counters[cls])
		}
		totalTxns += s.txns
	}

	mult := 1.0
	var wall, util float64
	stall := make([][sim.NumClasses]float64, nStreams)
	for iter := 0; iter < 60; iter++ {
		for i, s := range streams {
			coreMult := mult * coreFactor[s.Core]
			for cls := 0; cls < sim.NumClasses; cls++ {
				stall[i][cls] = p.Core.StallCycles(s.counters[cls], coreMult, cores)
			}
		}
		wall = 0
		for c := 0; c < cores; c++ {
			var ic, st []float64
			for i := range streams {
				if streams[i].Core != c {
					continue
				}
				ic = append(ic, sum3(instrCyc[i]))
				st = append(st, sum3(stall[i]))
			}
			if t := p.Core.CoreTime(ic, st); t > wall {
				wall = t
			}
		}
		util = msys.Utilization(busTxns, wall)
		next := msys.LatencyMultiplier(util)
		if math.Abs(next-mult) < 1e-9 {
			mult = next
			break
		}
		mult = 0.5*mult + 0.5*next
	}

	res := Result{
		Platform:    p.Name,
		Cores:       cores,
		Threads:     nStreams,
		Txns:        totalTxns,
		WallCycles:  wall,
		BusUtil:     math.Min(util, msys.Link().MaxUtil),
		BusMult:     mult,
		Mem:         msys.Stats(),
		Totals:      totals,
		ClassTotals: classTotals,
	}
	if wall > 0 {
		res.WallSeconds = wall / p.Core.FreqHz
		res.Throughput = float64(totalTxns) / res.WallSeconds
	}

	// Attribute cycles per class. The SMT hide factor discounts stall
	// time uniformly, matching how a profiler would see it (the core is
	// busy with another thread during hidden stalls).
	hide := p.Core.HideFactor(p.ThreadsPerCore)
	for i, s := range streams {
		for cls := 0; cls < sim.NumClasses; cls++ {
			res.ByClass[cls].Cycles += instrCyc[i][cls] + stall[i][cls]*hide
			res.ByClass[cls].Instr += s.counters[cls].Instr
		}
	}
	return res
}

func sum3(a [sim.NumClasses]float64) float64 {
	var t float64
	for _, v := range a {
		t += v
	}
	return t
}
