package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"webmm/internal/experiments"
	"webmm/internal/telemetry"
)

// simWorkload is one plan of cells run through experiments.Runner.RunAll.
type simWorkload struct {
	name  string
	scale int
	plan  func(r *experiments.Runner) []experiments.Cell
}

var simWorkloads = map[string]simWorkload{
	// Figure 5's plan on the paper's bus model.
	"php_bus": {"php_bus", 256, func(r *experiments.Runner) []experiments.Cell { return r.Fig5Cells() }},
	// The DRAM half of the memsched sweep.
	"dram_sched": {"dram_sched", 256, func(r *experiments.Runner) []experiments.Cell {
		var out []experiments.Cell
		for _, c := range r.MemSchedCells() {
			if c.MemSched != "" {
				out = append(out, c)
			}
		}
		return out
	}},
	// Figure 10's and Figure 12's Rails cells.
	"ruby_restart": {"ruby_restart", 256, func(r *experiments.Runner) []experiments.Cell {
		return uniqueCells(append(r.Fig10Cells(), r.Fig12Cells()...))
	}},
}

func uniqueCells(cells []experiments.Cell) []experiments.Cell {
	seen := map[experiments.Cell]bool{}
	var out []experiments.Cell
	for _, c := range cells {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

func (w simWorkload) config(seed uint64) experiments.Config {
	return experiments.Config{Scale: w.scale, Warmup: 1, Measure: 2, Seed: simSeed(seed)}
}

const (
	// setupPerRound is how many times a round constructs the whole plan;
	// setup_s is the median over all of a run's constructions.
	setupPerRound = 3
	// minRounds is the fewest rounds a run makes, however long they take.
	minRounds = 3
	// warmShare sizes each round's warm passes against its cold pass;
	// minWarmPerRound is the fewest warm passes a round makes.
	warmShare       = 0.1
	minWarmPerRound = 10
)

// cellChecker holds the digests cell results must match: those pinned for
// the default seed, and otherwise those of the run's first pass.
type cellChecker struct {
	pinned map[string]string
	seen   map[string]string
}

func newCellChecker(workload string, seed uint64) *cellChecker {
	ck := &cellChecker{seen: map[string]string{}}
	if seed == defaultSeed {
		ck.pinned = pinnedDigests[workload]
	}
	return ck
}

// check counts one cell result into rep: it fails when the cell failed or
// its digest differs from the pinned or first-seen one.
func (ck *cellChecker) check(rep *report, what string, res experiments.CellResult) {
	key, d := res.Cell.Key(), digest(res)
	ref := ck.pinned
	if ref == nil {
		ref = ck.seen
		if _, ok := ref[key]; !ok {
			ref[key] = d
		}
	}
	want, ok := ref[key]
	rep.check(!res.Failed && ok && d == want, "%s cell %s: failed=%v digest %s, want %s", what, key, res.Failed, d, want)
}

// runSim measures one simulation workload in rounds until the budget is
// spent. A round constructs the whole plan setupPerRound times (set-up),
// simulates it from a fresh Runner into an empty cell cache (a cold pass),
// and replays it from that cache with fresh Runners for warmShare of the
// cold pass's time (warm passes). Interleaving the three spreads
// every metric's samples over the whole run, so one slow stretch of a
// shared host moves none of the medians far.
func runSim(w simWorkload, o options) (*report, error) {
	if o.trace {
		return traceSim(w, o)
	}
	cfg := w.config(o.seed)
	plan := w.plan(experiments.NewRunner(cfg))
	jobs := simJobs(w.name, false)
	rep := newReport()
	ck := newCellChecker(w.name, o.seed)
	var (
		setup, cold, cpu, coldRate, warmRate, warmCell []float64
		coldCell                                       = cellTimes{}
	)
	start := time.Now()
	for rounds := 0; more(start, rounds, minRounds, o.budget); rounds++ {
		runtime.GC() // every round starts from a collected heap, as a fresh process would
		for i := 0; i < setupPerRound; i++ {
			s, err := constructPlan(cfg, plan)
			if err != nil {
				return nil, err
			}
			setup = append(setup, s)
		}

		// The round's cell cache is held in memory: on a shared host the
		// file system's latency swings far more than the cache code's own
		// cost, and would drown it.
		store := experiments.NewMemBackend()
		r := experiments.NewRunner(cfg)
		r.Cache = experiments.NewCellCacheOn(store)
		runtime.GC()
		c0 := cpuSeconds()
		var res []experiments.CellResult
		wall := timed(func() { res = r.RunAll(plan, jobs) })
		cpu = append(cpu, cpuSeconds()-c0)
		cold = append(cold, wall)
		coldRate = append(coldRate, float64(len(plan))/wall)
		for _, cr := range res {
			ck.check(rep, "cold", cr)
		}
		coldCell.add(cellWalls(r, plan))

		warmUntil := time.Now().Add(time.Duration(warmShare * wall * float64(time.Second)))
		for n := 0; n < minWarmPerRound || time.Now().Before(warmUntil); n++ {
			wall, man := warmPass(rep, ck, cfg, plan, jobs, store)
			warmRate = append(warmRate, float64(len(plan))/wall)
			for _, mc := range man.Cells {
				warmCell = append(warmCell, mc.WallMS)
			}
		}
	}
	rep.set("setup_s", median(setup))
	rep.set("wall_s", median(cold))
	rep.set("cpu_s", median(cpu))
	rep.set("peak_rss_mb", peakRSSMB())
	rep.set("cold_cells_per_s", median(coldRate))
	rep.set("cold_p50_ms", coldCell.quantile(0.5))
	rep.set("cold_p90_ms", coldCell.quantile(0.9))
	rep.set("warm_req_per_s", median(warmRate))
	rep.set("warm_p50_ms", quantile(warmCell, 0.5))
	rep.set("warm_p90_ms", quantile(warmCell, 0.9))
	return rep, nil
}

// warmPass replays the plan from the cell cache store with a fresh Runner
// and checks that every cell came from the cache with its known result.
// It returns the pass's wall time (s) and the Runner's manifest.
func warmPass(rep *report, ck *cellChecker, cfg experiments.Config, plan []experiments.Cell, jobs int, store experiments.CacheBackend) (float64, *telemetry.Manifest) {
	r := experiments.NewRunner(cfg)
	r.Cache = experiments.NewCellCacheOn(store)
	var res []experiments.CellResult
	wall := timed(func() { res = r.RunAll(plan, jobs) })
	man := r.BuildManifest(nil)
	rep.check(man.CacheHits == uint64(len(plan)), "warm pass: %d cache hits for %d cells", man.CacheHits, len(plan))
	for _, cr := range res {
		ck.check(rep, "warm", cr)
	}
	return wall, man
}

// traceSim is a --trace 1 run of a simulation workload. In each round every
// cell runs twice, back to back: untraced through one Runner, with one job,
// into an in-memory cell cache whose calls are timed; then traced, through
// cell.go's copy of Runner.simulate with every layer timed. The traced
// result must equal the untraced one. Pairing the two runs of a cell keeps
// the shared host's drift out of their comparison. A warm pass then
// replays the round's cache.
func traceSim(w simWorkload, o options) (*report, error) {
	cfg := w.config(o.seed)
	plan := w.plan(experiments.NewRunner(cfg))
	rep := newReport()
	ck := newCellChecker(w.name, o.seed)
	cacheT := &timedCache{}
	sp := &spans{}
	var (
		lay                              []*layers
		untracedWall, tracedWall, unattr []float64
		allocMB, gcs                     []float64
		untracedCell, tracedCell         = cellTimes{}, cellTimes{}
	)
	start := time.Now()
	rounds := 0
	for ; more(start, rounds, minRounds, o.budget); rounds++ {
		store := cacheT.wrap(experiments.NewMemBackend())
		r := experiments.NewRunner(cfg)
		r.Cache = experiments.NewCellCacheOn(store)
		l := &layers{}
		var uwall, twall, alloc, ngc float64
		cellMS := map[string]float64{}
		cacheT.setPhase(coldPhase)
		runtime.GC()
		for _, c := range plan {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var cr experiments.CellResult
			uwall += timed(func() { cr = r.Run(c) })
			runtime.ReadMemStats(&ms1)
			alloc += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
			ngc += float64(ms1.NumGC - ms0.NumGC)
			ck.check(rep, "cold", cr)

			before := l.attributed()
			var tcr experiments.CellResult
			var err error
			twall += timed(func() { tcr, err = traceCell(cfg, c, l, sp) })
			if err != nil {
				return nil, err
			}
			rep.check(digest(tcr) == digest(cr), "traced cell %s differs from the untraced run", c.Key())
			cellMS[c.Key()] = ms(l.attributed() - before)
		}
		untracedCell.add(cellWalls(r, plan))
		tracedCell.add(cellMS)
		lay = append(lay, l)
		untracedWall = append(untracedWall, uwall)
		tracedWall = append(tracedWall, twall)
		unattr = append(unattr, 100*(twall-l.attributed().Seconds())/twall)
		allocMB = append(allocMB, alloc)
		gcs = append(gcs, ngc)

		cacheT.setPhase(warmPhase)
		warmPass(rep, ck, cfg, plan, 1, store)
	}
	setSimLayers(rep, lay, tracedWall, untracedWall, unattr)
	checkRunnerGap(rep, untracedCell, tracedCell)
	setHost(rep, allocMB, gcs)
	cacheT.report(rep, [2]int{rounds, rounds})
	return rep, sp.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, o.seed)))
}

// cellWalls is each plan cell's wall time (ms) in the runner's manifest,
// by cell key. The manifest lists its cells sorted by key without naming
// every field of the key, so they are matched by that order.
func cellWalls(r *experiments.Runner, plan []experiments.Cell) map[string]float64 {
	keys := make([]string, len(plan))
	for i, c := range plan {
		keys[i] = c.Key()
	}
	sort.Strings(keys)
	out := make(map[string]float64, len(keys))
	for i, mc := range r.BuildManifest(nil).Cells {
		out[keys[i]] = mc.WallMS
	}
	return out
}

// maxRunnerGapPct is how far the traced layers' time may stray from the
// runner's own per-cell wall time before the traced run fails. Tracing
// overhead and host noise move it by a few percent; a layer missing from
// cell.go's copy of Runner.simulate, or work the runner does that the copy
// skips, moves it by the share of that work.
const maxRunnerGapPct = 20

// checkRunnerGap compares the traced layers with the untraced runner, cell
// by cell: trace.runner_gap_pct is the share of the runner's per-cell wall
// time (its manifest) that the traced layers of the same cells do not
// account for, both taken as each cell's median over the run. A negative
// gap is tracing overhead.
func checkRunnerGap(rep *report, untraced, traced cellTimes) {
	var un, tr float64
	for k, xs := range untraced {
		un += median(xs)
		tr += median(traced[k])
	}
	gap := 100 * (un - tr) / un
	rep.set("trace.runner_gap_pct", gap)
	rep.check(math.Abs(gap) <= maxRunnerGapPct, "the traced layers account for %.1f%% of the runner's per-cell time", 100*tr/un)
}

// constructPlan builds every cell of the plan — machine, memory system,
// runtimes, priced set-up — and drops it: the set-up every cold pass pays.
// It returns the constructors' time alone. The heap is collected before
// each cell, outside the timer, so no cell's constructor pays for another's
// garbage and the dropped cells never pile up into the run's peak RSS.
func constructPlan(cfg experiments.Config, plan []experiments.Cell) (float64, error) {
	var total float64
	for _, c := range plan {
		runtime.GC()
		var err error
		total += timed(func() { _, err = buildCell(cfg, c, nil) })
		if err != nil {
			return 0, fmt.Errorf("construct %s: %w", c.Key(), err)
		}
	}
	return total, nil
}

// traceCell builds and runs one cell through buildCell with every layer
// timed, recording a span per phase.
func traceCell(cfg experiments.Config, c experiments.Cell, l *layers, sp *spans) (experiments.CellResult, error) {
	t0 := time.Now()
	b, err := buildCell(cfg, c, l)
	if err != nil {
		return experiments.CellResult{}, fmt.Errorf("construct %s: %w", c.Key(), err)
	}
	t1 := time.Now()
	res, err := b.run(l, sp)
	if err != nil {
		return experiments.CellResult{}, fmt.Errorf("run %s: %w", c.Key(), err)
	}
	sp.add(c.Key(), "construct", 1, t0, t1)
	sp.add(c.Key(), "cell", 1, t0, time.Now())
	return res, nil
}

// setSimLayers reports the simulation layers as the median over traced
// passes of each layer's host time per pass.
func setSimLayers(rep *report, lay []*layers, tracedWall, untracedWall, unattr []float64) {
	med := func(f func(l *layers) float64) float64 {
		xs := make([]float64, len(lay))
		for i, l := range lay {
			xs[i] = f(l)
		}
		return median(xs)
	}
	secs := func(f func(l *layers) time.Duration) float64 {
		return med(func(l *layers) float64 { return f(l).Seconds() })
	}
	per := func(d time.Duration, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	rep.set("machine.new_s", secs(func(l *layers) time.Duration { return l.machineNew }))
	rep.set("apprt.new_s", secs(func(l *layers) time.Duration { return l.apprtNew }))
	rep.set("apprt.generate_s", secs(func(l *layers) time.Duration { return l.genWarm + l.genMeas }))
	rep.set("apprt.generate_ns_per_malloc", med(func(l *layers) float64 { return per(l.genWarm+l.genMeas, l.mallocs) }))
	rep.set("machine.price_warm_s", secs(func(l *layers) time.Duration { return l.priceWarm() }))
	rep.set("machine.price_meas_s", secs(func(l *layers) time.Duration { return l.priceMeas() }))
	rep.set("machine.price_ns_per_event", med(func(l *layers) float64 { return per(l.priceMeas(), l.events) }))
	rep.set("memsys.record_s", secs(func(l *layers) time.Duration { return l.record }))
	rep.set("memsys.records", med(func(l *layers) float64 { return float64(l.records) }))
	rep.set("memsys.record_ns_per_call", med(func(l *layers) float64 { return per(l.record, l.records) }))
	rep.set("machine.solve_s", secs(func(l *layers) time.Duration { return l.solve }))
	rep.set("sim.events", med(func(l *layers) float64 { return float64(l.events) }))
	rep.set("workload.mallocs", med(func(l *layers) float64 { return float64(l.mallocs) }))
	rep.set("workload.frees", med(func(l *layers) float64 { return float64(l.frees) }))
	rep.set("cpu.l2_accesses", med(func(l *layers) float64 { return float64(l.l2Accesses) }))
	rep.set("cpu.bus_txns", med(func(l *layers) float64 { return float64(l.busTxns) }))
	rep.set("trace.overhead_pct", 100*(median(tracedWall)/median(untracedWall)-1))
	rep.set("trace.unattributed_pct", median(unattr))
}

// setHost reports the Go heap traffic of one measured pass.
func setHost(rep *report, allocMB, gcs []float64) {
	rep.set("host.alloc_mb", median(allocMB))
	rep.set("host.gc_cycles", median(gcs))
}
