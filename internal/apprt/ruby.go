package apprt

import (
	"webmm/internal/heap"
	"webmm/internal/sim"
	"webmm/internal/workload"
)

// Default Ruby-study lifetime parameters: a small fraction of each
// transaction's objects (sessions, caches, interned data) survives for
// several transactions, which is what gradually fragments a heap that is
// never bulk-freed.
const (
	// Survivors accumulate slowly and live long (sessions, caches,
	// interned strings): heap aging keeps worsening over hundreds of
	// transactions, which is why the paper's sweet spot for restarts is
	// as high as 500 transactions.
	defaultSurvivorFrac = 0.015
	defaultSurvivorLife = 120

	// restartInstr is the full-scale instruction cost of restarting a
	// Ruby runtime process (interpreter boot, Rails framework load —
	// a fraction of a second of CPU). The sweep in Figure 12 trades
	// this cost against the locality the fresh heap restores.
	restartInstr = 600_000_000
)

// RubyRuntime is one Ruby runtime process of the §4.4 study. Ruby "does not
// call freeAll at the end of each Web transaction": every object is
// eventually freed per-object, some live across transactions, and the whole
// process restarts every RestartEvery transactions to shed fragmentation.
type RubyRuntime struct {
	env   *sim.Env
	alloc heap.Allocator
	desc  AllocatorDesc
	opts  AllocOptions
	gen   *workload.Generator
	scale int

	// RestartEvery is the process lifetime in transactions (Figure 12's
	// sweep parameter); 0 disables restarts.
	RestartEvery int

	// RestartCost is the instruction cost of one process restart
	// (interpreter boot, framework load). NewRuby defaults it to the
	// full-scale cost divided by the workload scale; harnesses that also
	// scale the restart *period* adjust it to keep the overhead fraction
	// faithful (see internal/experiments).
	RestartCost uint64

	txnsSinceStart int
	restarts       uint64

	footSum uint64
	footN   uint64
}

// NewRuby builds a Ruby runtime process using the named allocator (which
// must not require freeAll: glibc/hoard/tcmalloc/ddmalloc all qualify —
// DDmalloc is exercised here exactly as the paper does, *without* its
// freeAll advantage).
func NewRuby(env *sim.Env, allocName string, prof workload.Profile, scale, restartEvery int, opts AllocOptions) (*RubyRuntime, error) {
	d, err := RuntimeAllocator(allocName, true)
	if err != nil {
		return nil, err
	}
	alloc := d.New(env, opts)
	r := &RubyRuntime{
		env:   env,
		alloc: alloc,
		desc:  d,
		opts:  opts,
		gen:   workload.NewGenerator(env, alloc, prof, scale),
		scale: scale,

		RestartEvery: restartEvery,
	}
	r.RestartCost = restartInstr / uint64(scale)
	r.gen.SurvivorFrac = defaultSurvivorFrac
	r.gen.SurvivorLife = defaultSurvivorLife
	r.alloc.ResetPeak()
	return r, nil
}

func isSupportedRubyAlloc(name string) bool {
	switch name {
	case "glibc", "hoard", "tcmalloc", "ddmalloc":
		return true
	}
	return false
}

// Allocator exposes the current process's allocator.
func (r *RubyRuntime) Allocator() heap.Allocator { return r.alloc }

// Generator exposes the workload generator.
func (r *RubyRuntime) Generator() *workload.Generator { return r.gen }

// Restarts reports how many process restarts have occurred.
func (r *RubyRuntime) Restarts() uint64 { return r.restarts }

// StepTransaction implements machine.Driver.
func (r *RubyRuntime) StepTransaction() bool {
	if !r.gen.RunSlice(sliceSteps) {
		if !r.gen.OOMPending() {
			return false
		}
		// Allocation failure: a Ruby process has no request-scoped
		// bail-out, so the supervisor kills and restarts it (the Rails
		// deployment's answer to a bloated process). The failed request
		// is served as an error page and the stream keeps running.
		r.gen.Bailout()
		r.restart()
		r.env.Instr(2000, sim.ClassApp)
		return true
	}
	r.footSum += r.alloc.PeakFootprint()
	r.footN++
	// Ruby tears the request down object by object (GC finalization):
	// no bulk free exists.
	r.gen.EndTransaction(false)
	r.alloc.ResetPeak()
	r.env.Instr(2000, sim.ClassApp)

	r.txnsSinceStart++
	if r.RestartEvery > 0 && r.txnsSinceStart >= r.RestartEvery {
		r.restart()
	}
	return true
}

// restart replaces the process: the old heap vanishes, a fresh allocator
// starts on cold addresses, and the interpreter boot cost is paid.
func (r *RubyRuntime) restart() {
	r.restarts++
	r.txnsSinceStart = 0
	r.env.Instr(r.RestartCost, sim.ClassOS)
	r.gen.RestartProcess()
	// Construction panics when the address space itself is exhausted
	// (tiny budget, injected fault): the process genuinely cannot come
	// back, and the experiment runner recovers the panic into a CellError.
	alloc := r.desc.New(r.env, r.opts)
	r.alloc = alloc
	r.gen.SetAllocator(alloc)
	r.alloc.ResetPeak()
}

// AvgFootprint returns the average per-transaction peak memory consumption.
func (r *RubyRuntime) AvgFootprint() float64 {
	if r.footN == 0 {
		return 0
	}
	return float64(r.footSum) / float64(r.footN)
}

// ResetFootprint restarts footprint averaging (call after warmup).
func (r *RubyRuntime) ResetFootprint() { r.footSum, r.footN = 0, 0 }
