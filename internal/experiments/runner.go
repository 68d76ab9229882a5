// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4). Each experiment function reads the (platform,
// allocator, workload, cores) cells it needs through a Lookup and renders
// the same rows/series the paper reports. Runner.Experiment plans those
// reads, simulates them through a memoizing Runner, which keeps cells that
// several figures need (e.g. Figure 5 and Table 4) from being simulated
// twice, and renders from the results.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webmm/internal/apprt"
	"webmm/internal/budget"
	"webmm/internal/heap"
	"webmm/internal/machine"
	"webmm/internal/mem"
	"webmm/internal/memsys"
	"webmm/internal/sim"
	"webmm/internal/telemetry"
	"webmm/internal/workload"
)

// Config controls simulation scale and measurement length.
type Config struct {
	// Scale divides every workload's Table 3 counts, the platform's L2
	// capacity, and its TLB reach, preserving the pressure ratios that
	// drive the paper's effects (DESIGN.md §5.4). Must be a power of
	// two; 1 is paper scale.
	Scale int
	// Warmup and Measure are transactions per stream.
	Warmup, Measure int
	// Seed derives all randomness.
	Seed uint64
	// XeonLargePages enables DDmalloc's large-page optimization on Xeon
	// (the paper's separate +11.7% experiment; off by default to match
	// the paper's primary Xeon configuration).
	XeonLargePages bool
	// Fidelity selects how the measurement phase executes: FidelityFull
	// (the default; the empty string means the same) prices every
	// transaction, FidelitySampled prices a SMARTS-style sample of the
	// measured rounds (machine.RunSampled's fixed 16/1/1 schedule) — much
	// faster on long measurement runs, with per-transaction statistics
	// accurate to a couple of percent. The field participates in the
	// cell-cache key, so full-fidelity cache entries are never served to
	// sampled runs or vice versa.
	Fidelity string
}

// The fidelity modes. Config.Validate rewrites FidelityFull to the empty
// string so "full" and "" configurations share runners and cache keys.
const (
	FidelityFull    = "full"
	FidelitySampled = "sampled"
)

// DefaultConfig is sized for interactive runs; the committed EXPERIMENTS.md
// numbers use Scale 8 (see that file for the exact configurations).
func DefaultConfig() Config {
	return Config{Scale: 32, Warmup: 2, Measure: 3, Seed: 20090615}
}

// Validate is the one check of a Config, applied wherever one enters the
// program: the CLI, the Study API, server defaults and every POST /run.
// Scale must be a power of two, Warmup at least 0, Measure at least 1 and
// Fidelity a known mode. Validate also canonicalizes: the explicit "full"
// spelling becomes "", so equivalent configurations share one runner and
// one cache key.
func (c *Config) Validate() error {
	if c.Scale < 1 || c.Scale&(c.Scale-1) != 0 {
		return fmt.Errorf("experiments: scale %d must be a power of two", c.Scale)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("experiments: warmup %d must be >= 0", c.Warmup)
	}
	if c.Measure < 1 {
		return fmt.Errorf("experiments: measure %d must be >= 1", c.Measure)
	}
	switch c.Fidelity {
	case FidelityFull:
		c.Fidelity = ""
	case "", FidelitySampled:
	default:
		return fmt.Errorf("experiments: unknown fidelity %q (want %q or %q)",
			c.Fidelity, FidelityFull, FidelitySampled)
	}
	return nil
}

// scalePlatform shrinks the capacity-dependent structures with the
// workload: live sets scale with transaction size, so L2 capacity and TLB
// reach scale alongside to preserve the paper's pressure ratios. Per-core
// L1s and hot metadata do not scale (they hold fixed hot structures), and
// bus bandwidth is untouched (bytes/cycle and cycles/txn shrink together,
// leaving utilization invariant).
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

// Cell identifies one simulated configuration.
type Cell struct {
	Platform string
	Alloc    string
	Workload string
	Cores    int
	// Ruby study extras.
	Ruby         bool
	RestartEvery int
	// Budget caps each stream's mapped bytes for this cell (0 =
	// unlimited). Unlike a controller-pushed limit it is static, so the
	// cell's outcome — including its bailouts and FAILED status — is
	// deterministic and cacheable; the heap-limit sweep is built on it.
	// omitempty keeps fingerprints of unbudgeted cells byte-identical to
	// builds that predate the field.
	Budget uint64 `json:",omitempty"`
	// MemSched, when non-empty, replaces the platform's bus memory system
	// with the DRAM model running the named scheduling policy (see
	// internal/memsys). Empty keeps the paper's bus model; omitempty
	// keeps bus-cell fingerprints byte-identical to builds that predate
	// the field.
	MemSched string `json:",omitempty"`
}

// Validate is the one check of a Cell: every name (platform, workload,
// allocator, policy) resolves in its registry, the platform has the cores,
// the runtime can run the allocator, and a restart period is set only on a
// Ruby cell and is never negative. It decides from registry facts alone
// and constructs nothing, so admission can run it on every request.
// Runner.build runs it first, so an invalid cell that reaches the runner
// fails once as a configuration error rather than as a retried panic.
func (c Cell) Validate() error {
	if c.Alloc == "" || c.Workload == "" {
		return errors.New("experiments: cell needs an allocator and a workload")
	}
	p, err := machine.PlatformDescByName(c.Platform)
	if err != nil {
		return err
	}
	if c.Cores < 1 || c.Cores > p.MaxCores {
		return fmt.Errorf("experiments: cores %d outside 1..%d on %s", c.Cores, p.MaxCores, p.Name)
	}
	if _, err := workload.ByName(c.Workload); err != nil {
		return err
	}
	if _, err := apprt.RuntimeAllocator(c.Alloc, c.Ruby); err != nil {
		return err
	}
	if c.RestartEvery < 0 {
		return fmt.Errorf("experiments: restart period %d must be >= 0", c.RestartEvery)
	}
	if c.RestartEvery > 0 && !c.Ruby {
		return fmt.Errorf("experiments: restart period %d on a PHP cell (only Ruby processes restart)", c.RestartEvery)
	}
	if c.MemSched != "" {
		if _, err := memsys.PolicyByName(memsys.PolicyName(c.MemSched)); err != nil {
			return err
		}
	}
	return nil
}

// CellResult bundles everything an experiment needs from one run.
type CellResult struct {
	Cell
	Res machine.Result
	// Footprint is the mean per-transaction peak memory consumption
	// averaged over streams (Figure 9).
	Footprint float64
	// Calls is the per-stream-average generator API statistics
	// (Table 3).
	Calls heap.Stats
	// Txns per stream measured.
	TxnsPerStream float64
	// Failed marks a cell whose simulation did not complete (panic,
	// timeout, cancellation, or configuration error); every other field
	// is zero and figures must render it as failed rather than as data.
	// omitempty keeps fault-free cache entries and fingerprints
	// byte-identical to builds that predate the field.
	Failed bool `json:",omitempty"`
	// BudgetDenials counts TryMap calls refused by a budget (static
	// Cell.Budget, a -faults budget/squeeze, or a controller-pushed
	// limit) across the cell's streams. Zero for unconstrained cells, so
	// omitempty preserves their fingerprints.
	BudgetDenials uint64 `json:",omitempty"`
	// Pressured marks a result perturbed by *dynamic* budget pressure: a
	// live controller (Runner.Budget) denied at least one mapping while
	// the cell ran. Such results depend on what else was running, so —
	// like cancelled cells — they are never memoized or written to the
	// cell cache. Cells the controller left alone are bit-identical to
	// unconstrained runs and cache as usual.
	Pressured bool `json:",omitempty"`
}

// CellError describes one cell whose simulation failed. The runner isolates
// the failure — a panicking cell cannot take down the process or the other
// cells of the plan — and records it here for the CLI's failure report.
type CellError struct {
	Cell     Cell
	Err      error  // the panic (wrapped), timeout, or configuration error
	Stack    []byte // goroutine stack at the point of a recovered panic
	Attempts int    // how many times the cell was tried
	// Pressured marks a failure that happened while a budget controller
	// was denying the cell's mappings (e.g. a Ruby restart that could not
	// remap under a shrunken limit). Like cancellation it is
	// environmental: the failed result is reported but not memoized.
	Pressured bool
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %+v failed after %d attempt(s): %v", e.Cell, e.Attempts, e.Err)
}

// ErrTransient marks a cell failure as environmental — the infrastructure
// failed, not the cell (an unreachable worker shard, a shed request, a
// dropped progress stream). Like a cancellation it is recorded in
// Failures but never memoized: the next caller gets a fresh attempt.
// Remote executors (Runner.Exec) wrap such failures so the distinction
// survives the runner's error handling.
var ErrTransient = errors.New("transient cell failure")

func (e *CellError) Unwrap() error { return e.Err }

// Environmental reports whether a cell failure came from the environment
// rather than from the cell: a cancellation, an expired deadline or an
// ErrTransient infrastructure failure. Such a failure is recorded in
// Failures but never memoized or counted against the cache, so the next
// caller gets a fresh attempt. Budget pressure is the other environmental
// cause; it is carried by CellError.Pressured, not by the error chain.
func Environmental(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrTransient)
}

// panicError wraps a recovered panic so the retry logic can distinguish
// transient crashes (retried once) from deterministic configuration errors
// and timeouts (not retried).
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// Runner memoizes cell results for a fixed Config. It is safe for
// concurrent use: racing Run calls for the same cell collapse into a single
// simulation (singleflight), so figures that share cells (e.g. Figure 5 and
// Table 4) never double-simulate even when fanned out in parallel.
type Runner struct {
	Cfg Config
	// Cache, when non-nil, persists cell results on disk so repeated
	// process runs skip already-simulated cells. Set before the first
	// Run.
	Cache *CellCache
	// Faults configures deterministic fault injection (see FaultPlan).
	// Set before the first Run; an Active plan bypasses the cell cache.
	Faults FaultPlan
	// Budget, when non-nil, admits every simulated cell to a shared
	// budget.Controller: the cell's streams get controller-pushed limits
	// and feed its allocation-rate estimates while they run. Results the
	// controller perturbed come back Pressured (see CellResult) and are
	// not memoized or cached. Set before the first Run.
	Budget *budget.Controller
	// Timeout bounds each cell attempt's simulation wall time (0 =
	// unbounded). Cancellation is cooperative: the simulation polls its
	// context before every pricing pass and at every phase (sim.CtxErr),
	// so a timed-out cell stops on its own goroutine — nothing is
	// abandoned — and is reported failed.
	Timeout time.Duration
	// Exec, when non-nil, replaces local simulation: the singleflight
	// leader calls Exec instead of simulate, so memoization, the
	// singleflight collapse, cache read/write, failure accounting, and
	// the cell-seconds histogram apply identically to remotely executed
	// cells. The serve fleet coordinator sets it to fan cells out over
	// worker instances. An error chain containing context.Canceled,
	// context.DeadlineExceeded, or ErrTransient is environmental — the
	// failure is recorded but never memoized, and singleflight waiters
	// with live contexts take over. Set before the first Run.
	Exec func(ctx context.Context, c Cell) (CellResult, error)
	// Ctx, when non-nil, cancels in-flight and future cells when done.
	Ctx context.Context
	// Tel is the observability layer. The default telemetry.Nop adds no
	// allocations to the simulation paths; a live session traces every
	// cell as a span tree, feeds the metrics registry, and profiles
	// allocation size classes. Telemetry only observes — it never touches
	// simulation randomness — so results are bit-identical either way.
	Tel *telemetry.Telemetry

	mu       sync.Mutex
	cells    map[Cell]CellResult
	inflight map[Cell]*inflightCell
	failures []*CellError

	// Per-cell execution accounting for the run manifest. Kept regardless
	// of telemetry (a map write per simulated cell) so a manifest can be
	// assembled after the fact.
	accounts map[Cell]cellAccount
	cacheHits, cacheMisses,
	memoHits uint64
	faultsOOM, faultsPanic atomic.Uint64
}

// cellAccount records how one cell was executed (not what it computed).
type cellAccount struct {
	// wall is the cell's host time; a cell that shared its pricing pass
	// gets an equal share of the pass.
	wall   time.Duration
	cached bool
	// shared counts the cells priced by the same pass, 0 for a cell
	// simulated alone.
	shared int
}

// inflightCell tracks one in-progress simulation so racing callers wait for
// the leader's result instead of simulating the cell again. res and
// cancelled are written once by the leader before done is closed; the close
// is the happens-before edge that publishes them to waiters.
type inflightCell struct {
	done chan struct{}
	res  CellResult
	// cancelled marks a leader that failed only because its own context
	// was cancelled or timed out. Such failures say nothing about the
	// cell, so they are not memoized, and a waiter whose context is still
	// live re-runs the cell instead of inheriting the failure.
	cancelled bool
}

// NewRunner returns a Runner for cfg, canonicalized by Config.Validate.
// It panics on a Config that Config.Validate rejects; callers holding
// untrusted input validate first.
func NewRunner(cfg Config) *Runner {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Runner{
		Cfg:      cfg,
		cells:    make(map[Cell]CellResult),
		inflight: make(map[Cell]*inflightCell),
		accounts: make(map[Cell]cellAccount),
	}
}

// cellRuntime is what the runner needs of a PHP or Ruby runtime: a driver
// for the machine, per-transaction footprint sampling, and its generator's
// call counts.
type cellRuntime interface {
	machine.Driver
	AvgFootprint() float64
	ResetFootprint()
	Generator() *workload.Generator
}

// Run simulates (or returns the memoized result of) one cell. Concurrent
// calls are safe; concurrent calls for the same cell run one simulation.
//
// A cell whose simulation fails — a panic anywhere under simulate, a
// timeout, a cancelled Ctx, or a configuration error — does not crash the
// process: Run returns a zero CellResult with Failed set, records a
// CellError (see Failures), and every other cell keeps running. Recovered
// panics are retried once before the cell is declared failed.
func (r *Runner) Run(c Cell) CellResult {
	return r.RunContext(context.Background(), c)
}

// RunContext is Run bounded by a caller context (typically one server
// request): cancelling ctx cooperatively stops the cell's simulation loops
// and fails the call. Cancellation and timeout failures are environmental,
// not properties of the cell, so they are recorded (Failures) but never
// memoized — a later call with a live context re-simulates the cell. All
// other failures memoize as usual.
func (r *Runner) RunContext(ctx context.Context, c Cell) CellResult {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		r.mu.Lock()
		if got, ok := r.cells[c]; ok {
			r.memoHits++
			r.mu.Unlock()
			r.Tel.Metrics().Counter("webmm_memo_hits_total",
				"Run calls served from the in-process memo", nil).Inc()
			return got
		}
		if fl, ok := r.inflight[c]; ok {
			r.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				// The caller is gone; don't hold its goroutine for a
				// result nobody wants. Not recorded as a cell failure —
				// the leader still owns the cell's fate.
				return CellResult{Cell: c, Failed: true}
			}
			if fl.cancelled && ctx.Err() == nil {
				continue // the leader's context died, not ours: take over
			}
			return fl.res
		}
		fl := &inflightCell{done: make(chan struct{})}
		r.inflight[c] = fl
		r.mu.Unlock()
		return r.lead(ctx, []Cell{c}, []*inflightCell{fl})[0]
	}
}

// lead resolves cells as their singleflight leader and publishes each
// result to its waiters; fls[i] is the inflight entry claimed for cells[i].
// The cells are one cell, or siblings with one trace key (see siblings).
// Cache hits are served one by one. Two or more misses share one pricing
// pass (simulate); a pass that fails for any reason — panic, timeout,
// cancellation, error — publishes nothing, and every miss then runs alone
// on the ordinary path, so failures, retries and memoization are exactly
// those of single cells.
func (r *Runner) lead(ctx context.Context, cells []Cell, fls []*inflightCell) []CellResult {
	// The runner-wide Ctx cancels every cell; a per-call ctx only its own.
	// Merge the two when both can fire.
	ctx, stop := joinContext(ctx, r.Ctx)
	defer stop()

	type miss struct {
		i     int
		start time.Time
		span  *telemetry.Span
	}
	out := make([]CellResult, len(cells))
	var misses []miss
	for i, c := range cells {
		m := miss{i, time.Now(), r.cellSpan(c)}
		// An active fault plan bypasses the cache in both directions:
		// perturbed results must not poison it and clean entries must not
		// mask the faults.
		if !r.Faults.Active() {
			if res, ok := r.Cache.load(r.Cfg, c); ok {
				out[i] = r.settle(c, fls[i], m.span, res, nil, cellAccount{wall: time.Since(m.start), cached: true})
				continue
			}
		}
		misses = append(misses, m)
	}
	if n := len(misses); n > 1 {
		sibs := make([]Cell, n)
		for k, m := range misses {
			sibs[k] = cells[m.i]
		}
		gspan := r.Tel.Tracer().StartSpan("group "+widest(sibs).Key(), "group")
		gspan.Arg("cells", n)
		start := time.Now()
		spans := make([]*telemetry.Span, n)
		var pressured bool
		res, err := r.simulateGuarded(ctx, sibs, 0, gspan, spans, &pressured)
		gspan.Arg("failed", err != nil)
		gspan.End()
		if err == nil {
			for k, c := range sibs {
				r.store(c, res[k])
			}
			// Each member is charged an equal share of the pass, so the
			// members' wall times sum to the group's.
			share := time.Since(start) / time.Duration(n)
			for k, m := range misses {
				out[m.i] = r.settle(sibs[k], fls[m.i], spans[k], res[k], nil, cellAccount{wall: share, shared: n})
			}
			return out
		}
	}
	for _, m := range misses {
		c := cells[m.i]
		res, cerr := r.runCell(ctx, c, m.span)
		if cerr == nil {
			r.store(c, res)
		}
		out[m.i] = r.settle(c, fls[m.i], m.span, res, cerr, cellAccount{wall: time.Since(m.start)})
	}
	return out
}

// cellSpan opens the trace span of one cell.
func (r *Runner) cellSpan(c Cell) *telemetry.Span {
	span := r.Tel.Tracer().StartSpan("cell "+c.Key(), "cell")
	span.Arg("platform", c.Platform)
	span.Arg("alloc", c.Alloc)
	span.Arg("workload", c.Workload)
	span.Arg("cores", c.Cores)
	return span
}

// store writes a freshly simulated result to the cell cache. A Pressured
// result reflects what the budget controller did to this particular run,
// not the cell itself, so it must not poison the cache; nor may anything
// simulated under an active fault plan.
func (r *Runner) store(c Cell, out CellResult) {
	switch {
	case r.Faults.Active() || out.Pressured:
	case r.Faults.CacheCorrupt:
		r.Cache.storeCorrupt(r.Cfg, c)
	default:
		r.Cache.store(r.Cfg, c, out)
	}
}

// settle publishes one resolved cell: its result (or, with cerr, its
// failure) to the waiters, then the failure record, the memo and manifest
// accounting, the cache counters, the cell's span and the metrics.
func (r *Runner) settle(c Cell, fl *inflightCell, span *telemetry.Span, out CellResult, cerr *CellError, acct cellAccount) CellResult {
	cancelled := false
	if cerr != nil {
		out = CellResult{Cell: c, Failed: true, Pressured: cerr.Pressured}
		cancelled = Environmental(cerr.Err)
	}
	countCache := !r.Faults.Active() && r.Cache != nil && !cancelled

	fl.res = out
	fl.cancelled = cancelled
	r.mu.Lock()
	if cerr != nil {
		r.failures = append(r.failures, cerr)
	}
	if !cancelled && !out.Pressured {
		// A cancelled, timed-out, transient-remote, or pressure-perturbed
		// cell is not memoized: the next caller gets a fresh attempt (and,
		// under a controller, a fresh chance at an unconstrained run).
		r.cells[c] = out
		r.accounts[c] = acct
	}
	if countCache {
		if acct.cached {
			r.cacheHits++
		} else {
			r.cacheMisses++
		}
	}
	delete(r.inflight, c)
	r.mu.Unlock()
	close(fl.done)

	span.Arg("cached", acct.cached)
	span.Arg("failed", out.Failed)
	if acct.shared > 1 {
		span.Arg("shared", acct.shared)
	}
	if cerr != nil && cerr.Attempts > 0 {
		span.Arg("attempts", cerr.Attempts)
	}
	span.End()
	if met := r.Tel.Metrics(); met != nil {
		met.Counter("webmm_cells_total", "cells resolved (simulated, cached, or failed)", nil).Inc()
		if out.Failed {
			met.Counter("webmm_cells_failed_total", "cells whose simulation failed", nil).Inc()
		}
		if out.Pressured {
			met.Counter("webmm_cells_pressured_total",
				"cells perturbed by budget-controller denials (not memoized or cached)", nil).Inc()
		}
		if countCache {
			if acct.cached {
				met.Counter("webmm_cache_hits_total", "cells served from the disk cell cache", nil).Inc()
			} else {
				met.Counter("webmm_cache_misses_total", "cells missing from the disk cell cache", nil).Inc()
			}
		}
		CellSeconds(met).Observe(acct.wall.Seconds())
	}
	return out
}

// CellSeconds returns met's histogram of wall time per resolved cell, nil
// on a nil registry. The runner observes every cell as it settles; a
// server reads the median back for its Retry-After estimate and a fleet
// coordinator for its hedge delay, so all of them share one definition.
func CellSeconds(met *telemetry.Registry) *telemetry.Histogram {
	return met.Histogram("webmm_cell_seconds", "wall time per resolved cell (a grouped cell's share)",
		[]float64{0.001, 0.01, 0.1, 1, 10, 60, 600}, nil)
}

// joinContext returns a context that is cancelled when either input is.
// Whenever one side cannot fire the other is returned as-is, which is every
// CLI configuration; the merged context (one context.AfterFunc) only exists
// when a per-request context and a runner-wide Ctx are both cancellable.
func joinContext(ctx, extra context.Context) (context.Context, func()) {
	nop := func() {}
	if extra == nil || extra.Done() == nil {
		return ctx, nop
	}
	if ctx.Done() == nil {
		return extra, nop
	}
	merged, cancel := context.WithCancelCause(ctx)
	stop := context.AfterFunc(extra, func() { cancel(extra.Err()) })
	return merged, func() { stop(); cancel(nil) }
}

// Key renders the cell as the compact platform/alloc/workload/cores path
// used in span names, failure reports, and the server's progress events.
func (c Cell) Key() string {
	k := fmt.Sprintf("%s/%s/%s/%d", c.Platform, c.Alloc, c.Workload, c.Cores)
	if c.Ruby {
		k += fmt.Sprintf("/ruby:%d", c.RestartEvery)
	}
	if c.Budget > 0 {
		k += fmt.Sprintf("/budget:%d", c.Budget)
	}
	if c.MemSched != "" {
		k += "/memsched:" + c.MemSched
	}
	return k
}

// Failures returns the cells that failed so far, in failure order.
func (r *Runner) Failures() []*CellError {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*CellError, len(r.failures))
	copy(out, r.failures)
	return out
}

// classLabels are the short per-class metric label values, indexed by
// sim.Class.
var classLabels = [sim.NumClasses]string{
	sim.ClassAlloc: "mm", sim.ClassApp: "app", sim.ClassOS: "os",
}

// attachTelemetry wires a freshly built machine into the telemetry layer:
// every stream Env reports allocation sizes to the shared profile and, when
// tracing, the machine's round sampler emits per-round counter tracks under
// the span of its pass. The tracks cover the whole machine, which for a
// sibling group is its widest member's; the class metrics count each
// member's own streams and are published from its solve (recordResult).
// With telemetry disabled the machine is left untouched.
func (r *Runner) attachTelemetry(m *machine.Machine, span *telemetry.Span) {
	if !r.Tel.Enabled() {
		return
	}
	if ap := r.Tel.AllocSizes(); ap != nil {
		for _, s := range m.Streams() {
			s.Env.AllocRec = ap
		}
	}
	tr := r.Tel.Tracer()
	if tr == nil {
		return
	}
	tid := span.TID()
	core, cores := m.Plat.Core, m.NCores
	m.Sampler = func(s machine.RoundSample) {
		if !s.Measuring {
			return
		}
		// Per-round attribution tracks: the single-stream cycle estimate
		// (bus contention is not yet solved at sampling time, so the
		// multiplier is 1) and the demand L2 misses, both by class.
		cyc := make(map[string]float64, sim.NumClasses)
		miss := make(map[string]float64, sim.NumClasses)
		for cls := 0; cls < sim.NumClasses; cls++ {
			d := s.ByClass[cls]
			cyc[classLabels[cls]] = core.InstrCycles(d) + core.StallCycles(d, 1.0, cores)
			miss[classLabels[cls]] = float64(d.L2Miss())
		}
		tr.Counter(tid, "cycles (est)", cyc)
		tr.Counter(tid, "l2 misses", miss)
	}
}

// BuildManifest assembles the run manifest from the runner's accounting:
// every resolved cell with its wall time, cache provenance and headline
// numbers, the cache and memo hit counts, and the failure reports. Cells and
// failures are sorted by cell key so the manifest is deterministic under
// parallel fan-out. The caller owns the CLI-level Config fields the runner
// cannot see (Jobs, Faults, Timeout, CellCacheDir) and the wall-clock Stamp.
func (r *Runner) BuildManifest(experiments []string) *telemetry.Manifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	cells := make([]Cell, 0, len(r.cells))
	for c := range r.cells {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Key() < cells[j].Key() })

	m := &telemetry.Manifest{
		Tool:          "webmm",
		FormatVersion: telemetry.ManifestFormatVersion,
		SimVersion:    cellCacheVersion,
		GoVersion:     runtime.Version(),
		Config: telemetry.ManifestConfig{
			Scale:          r.Cfg.Scale,
			Warmup:         r.Cfg.Warmup,
			Measure:        r.Cfg.Measure,
			Seed:           r.Cfg.Seed,
			XeonLargePages: r.Cfg.XeonLargePages,
			Fidelity:       r.Cfg.Fidelity,
		},
		Experiments: experiments,
		Cells:       make([]telemetry.ManifestCell, 0, len(cells)),
		CacheHits:   r.cacheHits,
		CacheMisses: r.cacheMisses,
		MemoHits:    r.memoHits,
	}
	if total := r.cacheHits + r.cacheMisses; total > 0 {
		m.CacheHitRatio = float64(r.cacheHits) / float64(total)
	}
	for _, c := range cells {
		res := r.cells[c]
		acct := r.accounts[c]
		m.Cells = append(m.Cells, telemetry.ManifestCell{
			Platform:     c.Platform,
			Alloc:        c.Alloc,
			Workload:     c.Workload,
			Cores:        c.Cores,
			Ruby:         c.Ruby,
			RestartEvery: c.RestartEvery,
			Budget:       c.Budget,
			MemSched:     c.MemSched,
			WallMS:       float64(acct.wall.Nanoseconds()) / 1e6,
			Cached:       acct.cached,
			Shared:       acct.shared,
			Failed:       res.Failed,
			Throughput:   res.Res.Throughput,
			Txns:         res.Res.Txns,
		})
	}
	for _, fe := range r.failures {
		m.Failures = append(m.Failures, telemetry.ManifestFailure{
			Cell: fe.Cell.Key(), Error: fe.Err.Error(), Attempts: fe.Attempts,
		})
	}
	sort.Slice(m.Failures, func(i, j int) bool { return m.Failures[i].Cell < m.Failures[j].Cell })
	return m
}

// runCell runs one cell with panic isolation, retrying once when the
// failure was a recovered panic (possibly transient under random fault
// injection). Timeouts, cancellation, and configuration errors are
// deterministic and not retried.
func (r *Runner) runCell(ctx context.Context, c Cell, span *telemetry.Span) (CellResult, *CellError) {
	if r.Exec != nil {
		if err := ctx.Err(); err != nil {
			return CellResult{}, &CellError{Cell: c, Err: err, Attempts: 1}
		}
		res, err := r.Exec(ctx, c)
		if err != nil {
			// A remote failure may still describe the result (a worker
			// that reported the cell Failed under pressure); keep the
			// Pressured bit so the memoization rules stay right.
			return CellResult{}, &CellError{Cell: c, Err: err, Attempts: 1, Pressured: res.Pressured}
		}
		return res, nil
	}
	var lastErr error
	var stack []byte
	var pressured bool
	for attempt := 0; attempt < 2; attempt++ {
		if err := ctx.Err(); err != nil {
			return CellResult{}, &CellError{Cell: c, Err: err, Attempts: attempt + 1, Pressured: pressured}
		}
		out, err := r.simulateGuarded(ctx, []Cell{c}, attempt, span, []*telemetry.Span{span}, &pressured)
		if err == nil {
			return out[0], nil
		}
		lastErr, stack = err, nil
		var pe *panicError
		if !errors.As(err, &pe) {
			return CellResult{}, &CellError{Cell: c, Err: err, Attempts: attempt + 1, Pressured: pressured}
		}
		stack = pe.stack
	}
	return CellResult{}, &CellError{Cell: c, Err: lastErr, Stack: stack, Attempts: 2, Pressured: pressured}
}

// simulateGuarded runs one simulate attempt with panics recovered into
// errors and, when a Timeout is configured, a per-attempt deadline on the
// context. Cancellation is cooperative — the simulation polls the context
// between phases and pricing rounds and returns on its own goroutine — so
// there is no watchdog and nothing to abandon: when simulateGuarded
// returns, no simulation work for the cell is running anywhere.
func (r *Runner) simulateGuarded(ctx context.Context, cells []Cell, attempt int, span *telemetry.Span, spans []*telemetry.Span, pressured *bool) (out []CellResult, err error) {
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			err = &panicError{val: p, stack: debug.Stack()}
		}
		if err != nil && r.Timeout > 0 && errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("simulation exceeded timeout %v: %w", r.Timeout, err)
		}
	}()
	return r.simulate(ctx, cells, attempt, span, spans, pressured)
}

// faultSeed derives the fault-injection RNG seed for one (cell, stream,
// attempt). It is independent of Config.Seed's other consumers — the
// simulation draws from per-stream RNGs seeded elsewhere — and distinct per
// retry, so a cell that failed under random injection gets fresh draws on
// its second attempt.
func faultSeed(seed uint64, c Cell, stream, attempt int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%+v|%d|%d", seed, c, stream, attempt)
	s := h.Sum64()
	if s == 0 {
		s = 1
	}
	return s
}

// RunAll simulates every cell of a plan, fanning the distinct cells out
// over jobs worker goroutines (jobs <= 0 means GOMAXPROCS). Sibling cells,
// which share a trace key, go to one worker together and share one pricing
// pass (see siblings). Every cell derives all of its randomness from
// Config.Seed and shares no state with other cells, so neither the
// schedule nor the grouping can change any number: RunAll is bit-identical
// to running the same cells serially, and jobs == 1 is exactly the serial
// loop over the groups. Results are returned in input order; duplicate
// cells share one simulation.
func (r *Runner) RunAll(cells []Cell, jobs int) []CellResult {
	results := r.runAll(context.Background(), cells, jobs, nil)
	out := make([]CellResult, len(cells))
	for i, c := range cells {
		out[i] = results[c]
	}
	return out
}

// runAll is RunAll under ctx, which stops dispatch when cancelled, with an
// optional hook called for each distinct cell as it settles, with the
// number settled so far and the number of distinct cells. The hook runs on
// the worker that settled the cell, so calls overlap when jobs > 1. runAll
// returns the results by cell; a cell left undispatched has none.
func (r *Runner) runAll(ctx context.Context, cells []Cell, jobs int, onCell func(res CellResult, done, total int)) map[Cell]CellResult {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	groups := r.siblings(cells)
	if jobs > len(groups) {
		jobs = len(groups)
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	// Results are collected as the workers produce them, not re-requested
	// afterwards: a cell whose failure is not memoized (timeout or
	// cancellation) must not be simulated a second time just to fill its
	// output slot.
	results := make(map[Cell]CellResult, total)
	var mu sync.Mutex
	run := func(g []Cell) {
		res := r.runGroup(ctx, g)
		mu.Lock()
		for i, c := range g {
			results[c] = res[i]
		}
		settled := len(results) - len(g)
		mu.Unlock()
		// The hook is the caller's code and may block (serve sends each
		// call to its client), so it runs outside the lock.
		if onCell != nil {
			for i := range g {
				onCell(res[i], settled+i+1, total)
			}
		}
	}
	if jobs > 1 {
		work := make(chan []Cell)
		var wg sync.WaitGroup
		wg.Add(jobs)
		for w := 0; w < jobs; w++ {
			go func() {
				defer wg.Done()
				for g := range work {
					run(g)
				}
			}()
		}
		for _, g := range groups {
			if ctx.Err() != nil {
				break
			}
			work <- g
		}
		close(work)
		wg.Wait()
	} else {
		for _, g := range groups {
			if ctx.Err() != nil {
				break
			}
			run(g)
		}
	}
	return results
}

// siblings drops duplicate cells and partitions the rest into sibling
// groups, in first-appearance order. Siblings are cells with one trace key
// (traceKey): they price the identical trace, or its leading streams, so
// one pass at the widest member's width can serve them all (DESIGN.md
// §10). Grouping is off — every cell is a group of one — while cells run
// remotely (Exec) or under perturbations drawn per cell: an active fault
// plan or a budget controller's lease.
func (r *Runner) siblings(cells []Cell) [][]Cell {
	grouping := r.Exec == nil && !r.Faults.Active() && r.Budget == nil
	at := make(map[Cell]int, len(cells))
	seen := make(map[Cell]bool, len(cells))
	var out [][]Cell
	for _, c := range cells {
		if seen[c] {
			continue
		}
		seen[c] = true
		k := c
		if grouping {
			k = r.traceKey(c)
		}
		if i, ok := at[k]; ok {
			out[i] = append(out[i], c)
			continue
		}
		at[k] = len(out)
		out = append(out, []Cell{c})
	}
	return out
}

// traceKey is c with the fields cleared that cannot reach the priced
// trace, so cells with one trace key price identical rounds, or the
// leading streams of the widest one's (DESIGN.md §10). MemSched is one:
// the memory system never feeds back into pricing. RestartEvery is another
// when the period exceeds the transactions a stream runs (rounds): the
// runtime restarts once a process has completed RestartEvery transactions,
// and no process gets there, so the cell prices exactly the no-restart
// trace. A period equal to the horizon still fires, after the last
// transaction, and its events are priced. Cores is the third when it is a
// whole number of L2 clusters: the first cores cores of a wider machine
// then price exactly as a machine of that width, so the widest member's
// pass serves the narrower ones (see result). A core count that leaves a
// cluster half empty keeps its own pass.
func (r *Runner) traceKey(c Cell) Cell {
	c.MemSched = ""
	if warm, meas := r.rounds(c); c.RestartEvery > warm+meas {
		c.RestartEvery = 0
	}
	if p, err := machine.PlatformDescByName(c.Platform); err == nil && c.Cores%p.CoresPerL2 == 0 {
		c.Cores = 0
	}
	return c
}

// widest returns the first of a sibling group's members with the most
// cores: the group prices its trace at that width.
func widest(cells []Cell) Cell {
	w := cells[0]
	for _, c := range cells[1:] {
		if c.Cores > w.Cores {
			w = c
		}
	}
	return w
}

// rounds returns the warmup and measured rounds c's streams run; a round
// completes one transaction per stream. Ruby cells run long enough that
// processes age, restart on schedule, and the measurement samples a full
// process lifetime (Figure 12's effect lives on that horizon): half the
// paper's 500-transaction period warm, then one and a quarter of it
// measured.
func (r *Runner) rounds(c Cell) (warm, meas int) {
	warm, meas = r.Cfg.Warmup, r.Cfg.Measure
	if c.Ruby {
		p500 := r.Cfg.rubyRestart(rubyRestartEvery)
		warm = max(warm, p500/2)
		meas = max(meas, p500+p500/4)
	}
	return warm, meas
}

// runGroup resolves one sibling group under ctx. Members already memoized
// or in flight elsewhere go through RunContext like any caller's (a memo
// hit or a wait on their leader); the rest are claimed at once, each with
// its own singleflight entry, and led together, so a concurrent Run of a
// member waits for the group.
func (r *Runner) runGroup(ctx context.Context, g []Cell) []CellResult {
	out := make([]CellResult, len(g))
	led := make([]bool, len(g))
	var cells []Cell
	var fls []*inflightCell
	r.mu.Lock()
	for i, c := range g {
		_, memo := r.cells[c]
		_, busy := r.inflight[c]
		if memo || busy {
			continue
		}
		fl := &inflightCell{done: make(chan struct{})}
		r.inflight[c] = fl
		cells, fls, led[i] = append(cells, c), append(fls, fl), true
	}
	r.mu.Unlock()
	res := r.lead(ctx, cells, fls)
	for i, c := range g {
		if led[i] {
			out[i], res = res[0], res[1:]
		} else {
			out[i] = r.RunContext(ctx, c)
		}
	}
	return out
}

// simulate runs a group of sibling cells from scratch: one build, warm and
// measure, then a result per member solved against the member's own
// memory system. A single cell is a group of one. It touches no Runner
// state beyond the (immutable) Cfg and Faults, which is what makes
// parallel fan-out safe. Around the stages it keeps what varies per run
// rather than per cell: the injected faults, the budget lease and the
// phase spans. attempt distinguishes the retry's fault-injection draws
// from the first try's; with an empty FaultPlan it has no effect at all.
// Faults and leases are drawn per cell, so only a group of one runs under
// them (siblings).
//
// span holds the shared phases: construct, warmup and measure. spans[i]
// holds member i's solve; a nil entry is opened as the member's cell span
// when its solve starts. A group of one passes its cell span as both.
//
// Cancellation: ctx is polled through sim.CtxErr on entry and before the
// solves here, per stream during construction, and before every pricing
// pass of the machine's round loop. Every poll ends the phase span it is
// in before returning, so a cancelled cell's trace is still well formed.
func (r *Runner) simulate(ctx context.Context, cells []Cell, attempt int, span *telemetry.Span, spans []*telemetry.Span, pressured *bool) ([]CellResult, error) {
	if err := sim.CtxErr(ctx); err != nil {
		return nil, err
	}
	c := cells[0]
	if r.Faults.PanicRate > 0 {
		rng := sim.NewRNG(faultSeed(r.Cfg.Seed, c, -1, attempt))
		if rng.Bool(r.Faults.PanicRate) {
			r.faultsPanic.Add(1)
			r.Tel.Metrics().Counter("webmm_faults_injected_total",
				"deterministic fault injections by kind", telemetry.Labels{"kind": "panic"}).Inc()
			panic(fmt.Sprintf("injected fault: cell %+v attempt %d", c, attempt))
		}
	}
	construct := span.Child("construct", "phase")
	b, err := r.build(ctx, cells, span)
	if err != nil {
		construct.End()
		return nil, err
	}
	// Arm fault injection after construction so denials and injected OOM
	// land on the steady-state Map paths the runtimes' bail-out machinery
	// handles (construction failure is a panic, isolated one level up).
	// The injector RNGs are the streams' own, seeded apart from all
	// simulation randomness, so an empty plan changes nothing.
	if r.Faults.OOMRate > 0 || r.Faults.Budget > 0 {
		for i, as := range b.spaces {
			if r.Faults.Budget > 0 {
				as.SetBudget(r.Faults.Budget)
			}
			if rate := r.Faults.OOMRate; rate > 0 {
				rng := sim.NewRNG(faultSeed(r.Cfg.Seed, c, i, attempt))
				as.SetFaultInjector(func(size uint64) bool {
					if !rng.Bool(rate) {
						return false
					}
					r.faultsOOM.Add(1)
					r.Tel.Metrics().Counter("webmm_faults_injected_total",
						"deterministic fault injections by kind", telemetry.Labels{"kind": "oom"}).Inc()
					return true
				})
			}
		}
	}
	// Admit the cell to the budget controller (if any) once it exists:
	// from here on the controller samples its footprint, estimates its
	// allocation rate through the lease's profile, and retargets the
	// streams' budgets mid-run. Controller-pushed limits override any
	// static budget armed by build — an admitted tenant is governed.
	var lease *budget.Lease
	if r.Budget != nil {
		lease = r.Budget.Admit(c.Key(), b.spaces)
		defer func() {
			// Read the denial tally before releasing so a panic that
			// unwinds through here (a restart that could not remap under
			// a shrunken limit) is still attributed to pressure — the
			// resulting FAILED row must not be memoized.
			if lease.Denials() > 0 {
				*pressured = true
			}
			lease.Release()
		}()
		for _, s := range b.m.Streams() {
			if prev := s.Env.AllocRec; prev != nil {
				s.Env.AllocRec = teeRecorder{prev, lease}
			} else {
				s.Env.AllocRec = lease
			}
		}
	}
	construct.End()
	warm := span.Child("warmup", "phase")
	err = b.warm(ctx)
	warm.End()
	if err != nil {
		return nil, err
	}
	// The squeeze fault fires at the warmup→measure boundary: budgets
	// shrink to a factor of the footprint the warm cell actually reached,
	// so the measured phase runs under moving pressure. Through the
	// controller when one governs the cell; directly otherwise — the
	// direct path reads only the spaces' own state, so it is as
	// deterministic as a static budget.
	if f := r.Faults.Squeeze; f > 0 {
		r.Tel.Metrics().Counter("webmm_faults_injected_total",
			"deterministic fault injections by kind", telemetry.Labels{"kind": "squeeze"}).Inc()
		if lease != nil {
			lease.Squeeze(f)
		} else {
			budget.SqueezeSpaces(b.spaces, f)
		}
	}
	meas := span.Child("measure", "phase")
	err = b.measure(ctx, r.Cfg.Fidelity)
	meas.End()
	if err != nil {
		return nil, err
	}
	if err := sim.CtxErr(ctx); err != nil {
		return nil, err
	}
	out := make([]CellResult, len(cells))
	for i, mc := range cells {
		if spans[i] == nil {
			spans[i] = r.cellSpan(mc)
		}
		slv := spans[i].Child("solve", "phase")
		out[i] = b.result(i)
		slv.End()
		r.recordResult(out[i].Res)
		// Only a live controller makes a result pressure-dependent; static
		// budget denials (Cell.Budget, -faults budget/squeeze without a
		// controller) are deterministic properties of the cell.
		out[i].Pressured = lease != nil && lease.Denials() > 0
	}
	return out, nil
}

// builtCell is a group of sibling cells constructed and ready to run: one
// machine, each member's memory system, one runtime per stream, and the
// rounds each phase runs.
type builtCell struct {
	cells                  []Cell
	models                 []memsys.Model // models[i] is cells[i]'s
	m                      *machine.Machine
	drivers                []machine.Driver
	rts                    []cellRuntime
	spaces                 []*mem.AddressSpace
	warmRounds, measRounds int
	// callsBefore holds each stream's call counts at the start of the
	// measured rounds, which result subtracts.
	callsBefore []heap.Stats
}

// build constructs a group of sibling cells under the runner's Config (a
// single cell is a group of one). It validates every member, scales the
// platform, gives each member its memory system — the platform's bus, or
// a DRAM model of the member's own core count when it names a policy —
// builds one machine whose measured misses fan out to every member's model
// (each DRAM model gets its own cores' records), attaches telemetry, arms
// a static Cell.Budget, builds one runtime per stream (polling ctx between
// streams), and takes the phase lengths from rounds. The members share a
// trace key, so the widest member's fields build the machine and the
// runtimes for all of them, and a narrower member reads the leading
// streams. Injected faults and a budget lease are per-run, not per-cell,
// and simulate arms them on the built cell.
func (r *Runner) build(ctx context.Context, cells []Cell, span *telemetry.Span) (builtCell, error) {
	for _, mc := range cells {
		if err := mc.Validate(); err != nil {
			return builtCell{}, err
		}
	}
	c := widest(cells)
	plat, err := machine.PlatformByName(c.Platform)
	if err != nil {
		return builtCell{}, err
	}
	plat = scalePlatform(plat, r.Cfg.Scale)
	models := make([]memsys.Model, len(cells))
	for i, mc := range cells {
		models[i] = plat.Mem
		if mc.MemSched == "" {
			continue
		}
		// The DRAM model sits behind the same transfer link the platform's
		// bus prices, so the aggregate bandwidth story is unchanged; what
		// the swap adds is row-buffer economics and per-core scheduling.
		dram, err := memsys.NewDRAM(
			memsys.DRAMConfig{Policy: memsys.PolicyName(mc.MemSched)},
			plat.Mem.Link(), mc.Cores)
		if err != nil {
			return builtCell{}, err
		}
		models[i] = dram
	}
	prof, err := workload.ByName(c.Workload)
	if err != nil {
		return builtCell{}, err
	}
	allocCode, err := apprt.AllocCodeSize(c.Alloc)
	if err != nil {
		return builtCell{}, err
	}
	// Interpreter + compiled-script code footprint. Code size is a fixed
	// property of the software, like the allocator's own footprint, so
	// it does not scale with the workload.
	const appCode = 192 * mem.KiB
	m := machine.New(plat, c.Cores, allocCode, appCode, r.Cfg.Seed)
	m.RecordTo(memsys.FanOut(models, c.Cores))
	r.attachTelemetry(m, span)

	n := m.NumStreams()
	b := builtCell{
		cells: cells, models: models, m: m,
		drivers: make([]machine.Driver, n),
		rts:     make([]cellRuntime, n),
		spaces:  make([]*mem.AddressSpace, n),
	}
	b.warmRounds, b.measRounds = r.rounds(c)
	largePages := plat.Name == "niagara" || (plat.Name == "xeon" && r.Cfg.XeonLargePages)
	for i, s := range m.Streams() {
		if err := sim.CtxErr(ctx); err != nil {
			return builtCell{}, err
		}
		// A static Cell.Budget arms before the runtime is built: it models
		// the total memory the tenant was given, so an allocator whose
		// footprint cannot fit it fails to build (a deterministic FAILED
		// row — the heap-limit sweep's cliff), and one that fits keeps the
		// cap for its steady-state map traffic.
		if c.Budget > 0 {
			s.Env.AS.SetBudget(c.Budget)
		}
		opts := apprt.AllocOptions{PID: i, LargePages: largePages}
		var rt cellRuntime
		if c.Ruby {
			ruby, err := apprt.NewRuby(s.Env, c.Alloc, prof, r.Cfg.Scale, c.RestartEvery, opts)
			if err != nil {
				return builtCell{}, err
			}
			// The restart *period* is scaled by 8/scale (see
			// rubyRestart), so the restart cost is scaled by the same
			// factor on top of its per-scale default to keep the
			// overhead fraction per unit of work faithful.
			ruby.RestartCost = ruby.RestartCost * 8 / uint64(r.Cfg.Scale)
			rt = ruby
		} else {
			php, err := apprt.NewPHP(s.Env, c.Alloc, prof, r.Cfg.Scale, opts)
			if err != nil {
				return builtCell{}, err
			}
			rt = php
		}
		b.drivers[i], b.rts[i], b.spaces[i] = rt, rt, s.Env.AS
	}
	return b, nil
}

// warm prices the construction events and runs the warmup rounds.
func (b *builtCell) warm(ctx context.Context) error {
	b.m.PriceSetup()
	return b.m.RunContext(ctx, b.drivers, b.warmRounds, 0)
}

// measure restarts each stream's footprint sampling, records its call
// counts, and runs the measured rounds: every one priced, or under
// FidelitySampled a sample of them.
func (b *builtCell) measure(ctx context.Context, fidelity string) error {
	b.callsBefore = make([]heap.Stats, len(b.rts))
	for i, rt := range b.rts {
		rt.ResetFootprint()
		b.callsBefore[i] = rt.Generator().Stats()
	}
	if fidelity == FidelitySampled {
		return b.m.RunSampled(ctx, b.drivers, b.measRounds)
	}
	return b.m.RunContext(ctx, b.drivers, 0, b.measRounds)
}

// result solves member i's cores of the machine against its memory system
// and assembles its result from its own streams, the leading ones: the
// solved timing, the mean footprint and per-stream calls over the measured
// rounds, and the budget denials.
func (b *builtCell) result(i int) CellResult {
	c := b.cells[i]
	res := b.m.SolveMem(b.models[i], c.Cores)
	rts, spaces := b.rts[:res.Threads], b.spaces[:res.Threads]
	out := CellResult{Cell: c, Res: res}
	var fpSum float64
	var calls heap.Stats
	for j, rt := range rts {
		fpSum += rt.AvgFootprint()
		after, before := rt.Generator().Stats(), b.callsBefore[j]
		calls.Mallocs += after.Mallocs - before.Mallocs
		calls.Frees += after.Frees - before.Frees
		calls.Reallocs += after.Reallocs - before.Reallocs
		calls.BytesRequested += after.BytesRequested - before.BytesRequested
		calls.BytesAllocated += after.BytesAllocated - before.BytesAllocated
		calls.Bailouts += after.Bailouts - before.Bailouts
	}
	out.Footprint = fpSum / float64(len(rts))
	out.Calls = calls
	out.TxnsPerStream = float64(res.Txns) / float64(len(rts))
	for _, as := range spaces {
		out.BudgetDenials += as.BudgetDenials()
	}
	return out
}

// recordResult publishes one solved cell's metrics: its per-class counters
// over its own streams, and a DRAM-backed cell's row-buffer counters. A
// group member publishes its own, so the metrics read the same however the
// cells were grouped.
func (r *Runner) recordResult(res machine.Result) {
	if !r.Tel.Enabled() {
		return
	}
	met := r.Tel.Metrics()
	for cls, ctr := range res.ClassTotals {
		lbl := telemetry.Labels{"class": classLabels[cls]}
		met.Counter("webmm_class_instr_total",
			"retired instructions by event class over measured rounds", lbl).Add(ctr.Instr)
		met.Counter("webmm_class_l2_miss_total",
			"demand L2 misses by event class over measured rounds", lbl).Add(ctr.L2Miss())
	}
	ms := res.Mem
	if ms == nil {
		return
	}
	lbl := telemetry.Labels{"policy": ms.Policy}
	met.Counter("webmm_dram_row_hits_total",
		"DRAM requests served from an open row, by scheduling policy", lbl).Add(ms.RowHits)
	met.Counter("webmm_dram_row_conflicts_total",
		"DRAM requests that closed another bank row first, by scheduling policy", lbl).Add(ms.RowConflicts)
	met.Counter("webmm_dram_row_closed_total",
		"DRAM requests that found their bank precharged, by scheduling policy", lbl).Add(ms.RowClosed)
	met.Gauge("webmm_dram_bank_queue_depth_max",
		"deepest per-bank request queue observed in the last DRAM-backed cell", lbl).Set(float64(ms.MaxQueueDepth))
}

// teeRecorder fans one stream's allocation-size reports out to both the
// telemetry profile and the budget lease.
type teeRecorder struct{ a, b sim.AllocRecorder }

func (t teeRecorder) RecordAlloc(size uint64) {
	t.a.RecordAlloc(size)
	t.b.RecordAlloc(size)
}

// PHPAllocators are the three allocators of the PHP study, in the paper's
// reporting order.
func PHPAllocators() []string { return []string{"default", "region", "ddmalloc"} }

// RubyAllocators are the four allocators of the Ruby study (Figure 10's
// bar order).
func RubyAllocators() []string { return []string{"glibc", "hoard", "tcmalloc", "ddmalloc"} }

// phpCell is shorthand for a PHP-study cell.
func phpCell(platform, alloc, wl string, cores int) Cell {
	return Cell{Platform: platform, Alloc: alloc, Workload: wl, Cores: cores}
}

// rubyCell is shorthand for a Ruby-study cell.
func rubyCell(alloc string, restart int) Cell {
	return Cell{Platform: "xeon", Alloc: alloc, Workload: workload.Rails().Name,
		Cores: 8, Ruby: true, RestartEvery: restart}
}

// relThroughput returns alloc's throughput relative to the baseline cell's.
func relThroughput(x, base CellResult) float64 {
	if base.Res.Throughput == 0 {
		return 0
	}
	return x.Res.Throughput / base.Res.Throughput
}
