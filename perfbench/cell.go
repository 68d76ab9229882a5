package main

import (
	"context"
	"sync"
	"time"

	"webmm/internal/apprt"
	"webmm/internal/experiments"
	"webmm/internal/heap"
	"webmm/internal/machine"
	"webmm/internal/mem"
	"webmm/internal/memsys"
	"webmm/internal/sim"
	"webmm/internal/workload"
)

// This file builds and runs one cell from the same public calls
// experiments.Runner.simulate makes (fault-free, unbudgeted, full
// fidelity, telemetry off), so the traced run can time each layer from the
// outside. The traced run checks every result against Runner.RunAll's, so
// any drift between this copy and the runner fails the benchmark.

// layers accumulates the per-layer host time and counts of traced cells.
type layers struct {
	machineNew, apprtNew    time.Duration
	genWarm, genMeas        time.Duration
	runWarm, runMeas, solve time.Duration
	record                  time.Duration // DRAM Record calls, timed in runs of recordBatch
	events, records         uint64        // measured-round events; DRAM Record calls
	mallocs, frees          uint64
	l2Accesses, busTxns     uint64
}

// priceWarm and priceMeas are the pricing share of the two RunContext
// calls: what remains once generation and memory-system recording are
// taken out.
func (l *layers) priceWarm() time.Duration { return l.runWarm - l.genWarm }
func (l *layers) priceMeas() time.Duration { return l.runMeas - l.genMeas - l.record }

// attributed is the host time the named layers account for.
func (l *layers) attributed() time.Duration {
	return l.machineNew + l.apprtNew + l.genWarm + l.genMeas + l.priceWarm() + l.priceMeas() + l.record + l.solve
}

// runtimeDriver is what both apprt runtimes offer beyond machine.Driver.
type runtimeDriver interface {
	machine.Driver
	Generator() *workload.Generator
	AvgFootprint() float64
	ResetFootprint()
}

// builtCell is a constructed cell, ready to warm up and measure.
type builtCell struct {
	cell            experiments.Cell
	m               *machine.Machine
	rts             []runtimeDriver
	warmup, measure int
	rec             *timedRecorder // nil on the bus model or when untimed
}

// scalePlatform mirrors the runner's platform scaling: L2 capacity and TLB
// reach shrink with the workload, floored at 64 sets and 32 entries.
func scalePlatform(p machine.Platform, scale int) machine.Platform {
	if scale == 1 {
		return p
	}
	sets := p.L2.Sets() / scale
	if sets < 64 {
		sets = 64
	}
	p.L2.Size = uint64(sets) * uint64(p.L2.Ways) * mem.LineSize
	tlb := p.TLBEntries / scale
	if tlb < 32 {
		tlb = 32
	}
	p.TLBEntries = tlb
	return p
}

// buildCell constructs c and prices its set-up events. With l non-nil the
// machine and runtime constructors are timed and the DRAM model's
// recorder is wrapped in a timer.
func buildCell(cfg experiments.Config, c experiments.Cell, l *layers) (*builtCell, error) {
	warmup, measure := cfg.Warmup, cfg.Measure
	if c.Ruby {
		// Ruby cells run long enough for processes to age and restart.
		p500 := experiments.NewRunner(cfg).RubyRestartPeriod(500)
		warmup = max(warmup, p500/2)
		measure = max(measure, p500+p500/4)
	}
	t0 := time.Now()
	plat, err := machine.PlatformByName(c.Platform)
	if err != nil {
		return nil, err
	}
	plat = scalePlatform(plat, cfg.Scale)
	var rec *timedRecorder
	if c.MemSched != "" {
		dram, err := memsys.NewDRAM(memsys.DRAMConfig{Policy: memsys.PolicyName(c.MemSched)}, plat.Mem.Link(), c.Cores)
		if err != nil {
			return nil, err
		}
		plat.Mem = dram
		if l != nil {
			rec = &timedRecorder{inner: dram.Recorder(), clock: clockCost()}
			plat.Mem = timedModel{Model: dram, rec: rec}
		}
	}
	prof, err := workload.ByName(c.Workload)
	if err != nil {
		return nil, err
	}
	allocCode, err := apprt.AllocCodeSize(c.Alloc)
	if err != nil {
		return nil, err
	}
	const appCode = 192 * mem.KiB // the runner's interpreter + script footprint
	m := machine.New(plat, c.Cores, allocCode, appCode, cfg.Seed)
	t1 := time.Now()

	largePages := plat.Name == "niagara" || (plat.Name == "xeon" && cfg.XeonLargePages)
	b := &builtCell{cell: c, m: m, rts: make([]runtimeDriver, m.NumStreams()),
		warmup: warmup, measure: measure, rec: rec}
	for i, s := range m.Streams() {
		opts := apprt.AllocOptions{PID: i, LargePages: largePages}
		if c.Ruby {
			rt, err := apprt.NewRuby(s.Env, c.Alloc, prof, cfg.Scale, c.RestartEvery, opts)
			if err != nil {
				return nil, err
			}
			rt.RestartCost = rt.RestartCost * 8 / uint64(cfg.Scale)
			b.rts[i] = rt
		} else {
			rt, err := apprt.NewPHP(s.Env, c.Alloc, prof, cfg.Scale, opts)
			if err != nil {
				return nil, err
			}
			b.rts[i] = rt
		}
	}
	t2 := time.Now()
	m.PriceSetup()
	if l != nil {
		l.machineNew += t1.Sub(t0) + time.Since(t2)
		l.apprtNew += t2.Sub(t1)
	}
	return b, nil
}

// run warms the cell up, measures it, and solves it. With l non-nil every
// Driver.StepTransaction is timed and the phases are recorded as spans.
func (b *builtCell) run(l *layers, sp *spans) (experiments.CellResult, error) {
	ctx := context.Background()
	drivers := make([]machine.Driver, len(b.rts))
	var phase *genPhase // the phase the timed drivers charge, switched below
	for i, rt := range b.rts {
		drivers[i] = rt
		if l != nil {
			drivers[i] = &timedDriver{Driver: rt, env: b.m.Streams()[i].Env, phase: &phase, clock: clockCost()}
		}
	}
	gens := make([]heap.Stats, len(b.rts))
	for i, rt := range b.rts {
		gens[i] = rt.Generator().Stats()
	}

	warm := genPhase{}
	phase = &warm
	t0 := time.Now()
	if err := b.m.RunContext(ctx, drivers, b.warmup, 0); err != nil {
		return experiments.CellResult{}, err
	}
	t1 := time.Now()
	callsBefore := make([]heap.Stats, len(b.rts))
	for i, rt := range b.rts {
		rt.ResetFootprint()
		callsBefore[i] = rt.Generator().Stats()
	}
	meas := genPhase{}
	phase = &meas
	t2 := time.Now()
	if err := b.m.RunContext(ctx, drivers, 0, b.measure); err != nil {
		return experiments.CellResult{}, err
	}
	if b.rec != nil {
		b.rec.flush() // the calls still held belong to the measured rounds
	}
	t3 := time.Now()
	res := b.m.Solve()
	t4 := time.Now()

	out := experiments.CellResult{Cell: b.cell, Res: res}
	var fpSum float64
	var calls heap.Stats
	for i, rt := range b.rts {
		fpSum += rt.AvgFootprint()
		after := rt.Generator().Stats()
		calls.Mallocs += after.Mallocs - callsBefore[i].Mallocs
		calls.Frees += after.Frees - callsBefore[i].Frees
		calls.Reallocs += after.Reallocs - callsBefore[i].Reallocs
		calls.BytesRequested += after.BytesRequested - callsBefore[i].BytesRequested
		calls.BytesAllocated += after.BytesAllocated - callsBefore[i].BytesAllocated
		calls.Bailouts += after.Bailouts - callsBefore[i].Bailouts
		if l != nil {
			l.mallocs += after.Mallocs - gens[i].Mallocs
			l.frees += after.Frees - gens[i].Frees
		}
	}
	out.Footprint = fpSum / float64(len(b.rts))
	out.Calls = calls
	out.TxnsPerStream = float64(res.Txns) / float64(len(b.rts))
	for _, s := range b.m.Streams() {
		out.BudgetDenials += s.Env.AS.BudgetDenials()
	}

	if l != nil {
		l.genWarm += warm.gen
		l.genMeas += meas.gen
		l.runWarm += t1.Sub(t0)
		l.runMeas += t3.Sub(t2)
		l.solve += t4.Sub(t3)
		l.events += meas.events
		if b.rec != nil {
			l.record += b.rec.busy
			l.records += b.rec.calls
		}
		t := res.Totals
		l.l2Accesses += t.L2HitRd + t.L2HitWr + t.L2MissRd + t.L2MissWr + t.L2HitIF + t.L2MissIF
		l.busTxns += t.BusRead + t.BusWrite + t.BusPf
		key := b.cell.Key()
		sp.add(key, "warmup", 1, t0, t1)
		sp.add(key, "measure", 1, t2, t3)
		sp.add(key, "solve", 1, t3, t4)
	}
	return out, nil
}

// genPhase accumulates generation time and emitted events for one phase.
type genPhase struct {
	gen    time.Duration
	events uint64
}

// clockBase anchors now: time.Since reads the monotonic clock once, where
// time.Now also reads the wall clock.
var clockBase = time.Now()

func now() time.Duration { return time.Since(clockBase) }

// clockCost is what an empty timed region, now() to now(), reads: the part
// of a clock read that falls inside the region it bounds. Every timed layer
// call subtracts it, so a layer is not charged for its own timer. It is the
// median of 101 batches of 1000 empty regions, measured once.
var clockCost = sync.OnceValue(func() time.Duration {
	const n = 1000
	batches := make([]float64, 101)
	for i := range batches {
		var total time.Duration
		for j := 0; j < n; j++ {
			t := now()
			total += now() - t
		}
		batches[i] = float64(total) / n
	}
	return time.Duration(median(batches))
})

// timedDriver times every StepTransaction — the generator, the allocator
// models it calls, and the sim event emission — and counts the events the
// step buffered.
type timedDriver struct {
	machine.Driver
	env   *sim.Env
	phase **genPhase
	clock time.Duration // clockCost
}

func (d *timedDriver) StepTransaction() bool {
	n := d.env.Buf().Len()
	t := now()
	done := d.Driver.StepTransaction()
	p := *d.phase
	p.gen += now() - t - d.clock
	p.events += uint64(d.env.Buf().Len() - n)
	return done
}

// recordBatch is how many Record calls the DRAM recorder timer holds and
// then forwards as one timed run. The model only queues what it is given
// until the solver first reads it, so deferring calls within the measured
// rounds changes no result (the traced run checks that), and timing runs
// of calls keeps the clock's own cost and the stall it puts in the pipeline
// out of the per-call figure.
const recordBatch = 256

// timedModel is a memory-system model whose recorder is timed.
type timedModel struct {
	memsys.Model
	rec *timedRecorder
}

func (m timedModel) Recorder() memsys.Recorder { return m.rec }

type recordCall struct {
	line uint64
	core int
	kind memsys.Kind
}

// timedRecorder times the model's Record calls — the enqueue plus, when it
// fills a bank's window, the window replay — in runs of recordBatch.
type timedRecorder struct {
	inner   memsys.Recorder
	clock   time.Duration // clockCost
	pending []recordCall
	calls   uint64
	busy    time.Duration // inside the model's Record
}

func (r *timedRecorder) Record(line uint64, core int, kind memsys.Kind) {
	r.pending = append(r.pending, recordCall{line, core, kind})
	if len(r.pending) == recordBatch {
		r.flush()
	}
}

// flush forwards the held calls to the model as one timed run.
func (r *timedRecorder) flush() {
	t := now()
	for _, c := range r.pending {
		r.inner.Record(c.line, c.core, c.kind)
	}
	r.busy += now() - t - r.clock
	r.calls += uint64(len(r.pending))
	r.pending = r.pending[:0]
}
