package apprt

import (
	"webmm/internal/heap"
	"webmm/internal/sim"
	"webmm/internal/workload"
)

// sliceSteps bounds how many allocation steps a runtime generates per
// machine pricing slice, keeping event buffers small at paper scale.
const sliceSteps = 4096

// PHPRuntime is one PHP runtime process serving transactions: allocate
// through the transaction, then bulk-free everything with the allocator's
// freeAll, exactly as the PHP runtime does with its custom allocator for
// transaction-scoped objects (paper §3.1).
type PHPRuntime struct {
	env   *sim.Env
	alloc heap.Allocator
	gen   *workload.Generator

	footSum uint64
	footN   uint64
}

// NewPHP builds a PHP runtime process using the named allocator.
func NewPHP(env *sim.Env, allocName string, prof workload.Profile, scale int, opts AllocOptions) (*PHPRuntime, error) {
	d, err := RuntimeAllocator(allocName, false)
	if err != nil {
		return nil, err
	}
	alloc := d.New(env, opts)
	r := &PHPRuntime{
		env:   env,
		alloc: alloc,
		gen:   workload.NewGenerator(env, alloc, prof, scale),
	}
	r.alloc.ResetPeak()
	return r, nil
}

// Allocator exposes the runtime's allocator (for reports).
func (r *PHPRuntime) Allocator() heap.Allocator { return r.alloc }

// Generator exposes the runtime's workload generator (for Table 3 stats).
func (r *PHPRuntime) Generator() *workload.Generator { return r.gen }

// StepTransaction implements machine.Driver.
func (r *PHPRuntime) StepTransaction() bool {
	if !r.gen.RunSlice(sliceSteps) {
		if !r.gen.OOMPending() {
			return false
		}
		// Allocation failure: bail the request out the way the PHP
		// engine does ("allowed memory size exhausted"), reclaim every
		// transaction-scoped object with freeAll, and serve the error
		// page. The stream keeps running; the failed transaction counts
		// as served.
		r.gen.Bailout()
		r.alloc.FreeAll()
		r.alloc.ResetPeak()
		r.env.Instr(2000, sim.ClassApp)
		return true
	}
	// End of request: sample memory consumption at its transaction peak,
	// then reclaim all transaction-scoped objects at once.
	r.footSum += r.alloc.PeakFootprint()
	r.footN++
	r.gen.EndTransaction(true)
	r.alloc.FreeAll()
	r.alloc.ResetPeak()
	// Request teardown/accept of the next request.
	r.env.Instr(2000, sim.ClassApp)
	return true
}

// AvgFootprint returns the average per-transaction peak memory consumption
// (Figure 9's quantity).
func (r *PHPRuntime) AvgFootprint() float64 {
	if r.footN == 0 {
		return 0
	}
	return float64(r.footSum) / float64(r.footN)
}

// ResetFootprint restarts footprint averaging (call after warmup).
func (r *PHPRuntime) ResetFootprint() { r.footSum, r.footN = 0, 0 }
