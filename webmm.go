// Package webmm is a simulation study of memory management for web-based
// applications on multicore processors, reproducing Inoue, Komatsu &
// Nakatani (PLDI 2009).
//
// The library bundles three things:
//
//   - Allocators: faithful models of the paper's seven allocators — the
//     defrag-dodging DDmalloc (the paper's contribution), a region-based
//     bump allocator, the PHP runtime's default (Zend-like) allocator, a
//     GNU-obstack model, and glibc/Hoard/TCmalloc models for the Ruby
//     study — all operating on a simulated 64-bit address space and
//     emitting every memory touch for pricing.
//
//   - Machines: trace-driven models of the paper's two platforms, an
//     8-core Intel Xeon E5320 (Clovertown) and an 8-core, 32-thread Sun
//     UltraSPARC T1 (Niagara), with set-associative caches, TLBs, a stream
//     prefetcher (Xeon), and a finite-bandwidth shared bus.
//
//   - Workloads and experiments: transaction generators calibrated to the
//     paper's Table 3 for its seven PHP applications plus Ruby on Rails,
//     and runners that regenerate every table and figure of the paper's
//     evaluation (see internal/experiments and cmd/webmm).
//
// Quick use: build a Study with options and run cells or whole experiments,
//
//	study, err := webmm.NewStudy(webmm.WithScale(64), webmm.WithJobs(4))
//	...
//	rel, err := study.CompareAllocators("phpBB", 8)
//
// or build a Sandbox (one simulated core) and exercise an allocator by
// hand. Telemetry (tracing, metrics, a run manifest) attaches to either via
// NewTelemetry and WithTelemetry.
package webmm

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"webmm/internal/apprt"
	"webmm/internal/budget"
	"webmm/internal/cpu"
	"webmm/internal/experiments"
	"webmm/internal/heap"
	"webmm/internal/machine"
	"webmm/internal/mem"
	"webmm/internal/memsys"
	"webmm/internal/report"
	"webmm/internal/sim"
	"webmm/internal/telemetry"
	"webmm/internal/workload"
)

// Allocator is the allocator interface of the study: Malloc, Free, Realloc,
// FreeAll, capability flags, footprint and statistics. See internal/heap
// for the full contract.
type Allocator = heap.Allocator

// Ptr is a simulated object address (0 is the null pointer).
type Ptr = heap.Ptr

// AllocStats counts allocator API traffic (the paper's Table 3 view).
type AllocStats = heap.Stats

// Platform describes one simulated machine.
type Platform = machine.Platform

// HardwareCounters are the OProfile-style event counts the simulator
// reports (instructions, cache misses, TLB misses, bus transactions).
type HardwareCounters = cpu.Counters

// MachineResult is a solved simulation outcome: throughput, wall time, bus
// utilization, per-component cycle attribution and hardware counters.
type MachineResult = machine.Result

// WorkloadProfile describes one of the paper's workloads (Table 2/3).
type WorkloadProfile = workload.Profile

// Table is an aligned text/CSV report table.
type Table = report.Table

// Chart is a text bar chart (used by fig5/fig7 outputs).
type Chart = report.Chart

// Telemetry is the observability layer: span tracing (Chrome-trace JSONL),
// a metrics registry (Prometheus text/CSV), per-size-class allocation
// profiling, and a run manifest. The zero value of interest is
// telemetry.Nop (a nil pointer), which every simulation path accepts at no
// cost; a live session is created by NewTelemetry.
type Telemetry = telemetry.Telemetry

// TelemetryOptions selects a telemetry session's outputs; empty paths
// disable the corresponding output.
type TelemetryOptions = telemetry.Options

// NewTelemetry opens a telemetry session. All-empty options return the
// disabled (nil) session, which is safe everywhere. Close the session to
// flush its files.
func NewTelemetry(opts TelemetryOptions) (*Telemetry, error) { return telemetry.New(opts) }

// Xeon returns the Intel Xeon E5320 (Clovertown) platform model.
func Xeon() Platform { return machine.Xeon() }

// Niagara returns the Sun UltraSPARC T1 platform model.
func Niagara() Platform { return machine.Niagara() }

// ---------------------------------------------------------------------------
// Typed registries: allocators and experiments.

// AllocatorName names one of the study's allocators. The constants below
// cover every registered allocator; plain string literals convert
// implicitly, so call sites may also write "ddmalloc".
type AllocatorName string

// The study's allocators, PHP comparison first (report order).
const (
	AllocDefault  AllocatorName = "default"
	AllocRegion   AllocatorName = "region"
	AllocDDmalloc AllocatorName = "ddmalloc"
	AllocObstack  AllocatorName = "obstack"
	AllocReap     AllocatorName = "reap"
	AllocGlibc    AllocatorName = "glibc"
	AllocHoard    AllocatorName = "hoard"
	AllocTCMalloc AllocatorName = "tcmalloc"
)

// AllocatorInfo describes one registered allocator.
type AllocatorInfo struct {
	Name AllocatorName
	// Study is "php" (Figures 1, 5-9), "ruby" (Figures 10-12), or
	// "extra" for allocators outside the headline comparisons.
	Study string
	Doc   string
}

// Allocators returns the registered allocators in report order.
func Allocators() []AllocatorInfo {
	var out []AllocatorInfo
	for _, d := range apprt.Allocators() {
		out = append(out, AllocatorInfo{Name: AllocatorName(d.Name), Study: d.Study, Doc: d.Doc})
	}
	return out
}

// ExperimentName names one of the paper's tables or figures.
type ExperimentName string

// The paper's experiments, in reporting order.
const (
	ExpFig1   ExperimentName = "fig1"
	ExpTable2 ExperimentName = "table2"
	ExpTable3 ExperimentName = "table3"
	ExpFig5   ExperimentName = "fig5"
	ExpFig6   ExperimentName = "fig6"
	ExpFig7   ExperimentName = "fig7"
	ExpTable4 ExperimentName = "table4"
	ExpFig8   ExperimentName = "fig8"
	ExpFig9   ExperimentName = "fig9"
	ExpFig10  ExperimentName = "fig10"
	ExpFig11  ExperimentName = "fig11"
	ExpFig12  ExperimentName = "fig12"
	// ExpHeapLimit is a study extension: throughput vs per-stream heap
	// limit for the PHP allocators, exposing each allocator's memory
	// floor.
	ExpHeapLimit ExperimentName = "heaplimit"
	// ExpMemSched is a study extension: allocator × DRAM scheduling
	// policy × core count, reporting throughput against the paper's bus
	// model and the row-buffer hit/conflict split.
	ExpMemSched ExperimentName = "memsched"
)

// ExperimentInfo describes one registered experiment.
type ExperimentInfo struct {
	Name ExperimentName
	// Ref is the paper artifact the experiment reproduces ("Figure 5").
	Ref string
	Doc string
	// Example is a one-line cmd/webmm invocation.
	Example string
	// Extra marks an extension beyond the paper's evaluation (run by name,
	// not by "all").
	Extra bool
}

// Experiments returns the registered experiments in the paper's reporting
// order.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, d := range experiments.Experiments() {
		out = append(out, ExperimentInfo{
			Name: ExperimentName(d.Name), Ref: d.Ref, Doc: d.Doc, Example: d.Example,
			Extra: d.Extra,
		})
	}
	return out
}

// MemSchedPolicyName names a DRAM scheduling policy of the memory-system
// registry (internal/memsys).
type MemSchedPolicyName = memsys.PolicyName

// The registered DRAM scheduling policies.
const (
	MemSchedFRFCFS = memsys.PolicyFRFCFS
	MemSchedATLAS  = memsys.PolicyATLAS
	MemSchedTCM    = memsys.PolicyTCM
	MemSchedBLISS  = memsys.PolicyBLISS
)

// MemSchedPolicyInfo describes one registered DRAM scheduling policy.
type MemSchedPolicyInfo struct {
	Name MemSchedPolicyName
	// Ref cites the paper the policy comes from.
	Ref string
	Doc string
}

// MemSchedPolicies returns the registered DRAM scheduling policies in
// presentation order.
func MemSchedPolicies() []MemSchedPolicyInfo {
	var out []MemSchedPolicyInfo
	for _, d := range memsys.Policies() {
		out = append(out, MemSchedPolicyInfo{Name: d.Name, Ref: d.Ref, Doc: d.Doc})
	}
	return out
}

// Workloads returns the paper's PHP workload profiles in Table 2 order.
func Workloads() []WorkloadProfile { return workload.Profiles() }

// WorkloadByName looks a profile up by its report name.
func WorkloadByName(name string) (WorkloadProfile, error) { return workload.ByName(name) }

// ---------------------------------------------------------------------------
// Sandbox: hand-driven single-core simulation.

// Sandbox is a single-core simulated machine for exercising allocators
// directly: create allocators on it, run malloc/free traffic, then Measure
// to price the recorded accesses through the cache hierarchy.
type Sandbox struct {
	m   *machine.Machine
	env *sim.Env
}

// SandboxOption configures a Sandbox at construction.
type SandboxOption func(*Sandbox)

// WithSandboxTelemetry attaches a telemetry session: allocator traffic
// flows into its per-size-class allocation profile. The disabled (nil)
// session is accepted and ignored.
func WithSandboxTelemetry(tel *Telemetry) SandboxOption {
	return func(s *Sandbox) {
		if ap := tel.AllocSizes(); ap != nil {
			s.env.AllocRec = ap
		}
	}
}

// NewSandbox builds a one-core sandbox of the platform.
func NewSandbox(p Platform, seed uint64, opts ...SandboxOption) *Sandbox {
	m := machine.New(p, 1, 16*mem.KiB, 192*mem.KiB, seed)
	s := &Sandbox{m: m, env: m.Streams()[0].Env}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// NewAllocator constructs a named allocator on the sandbox's address space.
func (s *Sandbox) NewAllocator(name AllocatorName) (Allocator, error) {
	return apprt.NewAllocator(string(name), s.env, apprt.AllocOptions{})
}

// NewDDmalloc constructs the paper's allocator with explicit options
// (segment size, large pages, metadata displacement).
func (s *Sandbox) NewDDmalloc(opts DDOptions) Allocator {
	return newDD(s.env, opts)
}

// Touch records an application read or write of size bytes at p, so object
// usage (not just allocator work) flows through the cache model.
func (s *Sandbox) Touch(p Ptr, size uint64, write bool) {
	if write {
		s.env.Write(p, size, sim.ClassApp)
	} else {
		s.env.Read(p, size, sim.ClassApp)
	}
}

// Work records n application instructions.
func (s *Sandbox) Work(n uint64) { s.env.Instr(n, sim.ClassApp) }

// Warm prices all recorded events without measuring them (cache warmup).
func (s *Sandbox) Warm() { s.m.PriceSetup() }

// Measure prices all recorded events into the measured counters and marks
// the end of one logical transaction.
func (s *Sandbox) Measure() { s.m.PriceMeasured() }

// Result solves the timing model for everything measured so far.
func (s *Sandbox) Result() MachineResult { return s.m.Solve() }

// ---------------------------------------------------------------------------
// Study: the paper's experiments behind a builder API.

// Study runs the paper's experiments. Build one with NewStudy and
// functional options; the zero Study is not valid.
type Study struct {
	r        *experiments.Runner
	platform string
	memsched string
	jobs     int
	tel      *Telemetry
	budget   *budget.Controller // nil without WithGlobalBudget
	started  time.Time
	ran      []string
}

// StudyOption configures a Study at construction.
type StudyOption func(*studyConfig) error

type studyConfig struct {
	cfg      experiments.Config
	platform string
	memsched string
	jobs     int
	cacheDir string
	faults   string
	timeout  time.Duration
	ctx      context.Context
	tel      *Telemetry
	budget   uint64
	pressure PressurePolicy
}

// WithPlatform sets the default platform ("xeon" or "niagara") for Cell
// and CompareAllocators. The default is "xeon".
func WithPlatform(name string) StudyOption {
	return func(c *studyConfig) error {
		if _, err := machine.PlatformByName(name); err != nil {
			return err
		}
		c.platform = name
		return nil
	}
}

// WithMemorySystem sets the default memory system for Cell and
// CompareAllocators: "bus" (the paper's shared-bus queueing model, the
// default) or "dram" (the bank-level model of internal/memsys under its
// default scheduling policy). Use WithMemSchedPolicy to pick a specific
// policy.
func WithMemorySystem(name string) StudyOption {
	return func(c *studyConfig) error {
		switch name {
		case "bus":
			c.memsched = ""
		case "dram":
			c.memsched = string(memsys.DefaultPolicy)
		default:
			return fmt.Errorf("webmm: unknown memory system %q (valid: [bus dram])", name)
		}
		return nil
	}
}

// WithMemSchedPolicy sets the default memory system to the DRAM model under
// the named scheduling policy (see MemSchedPolicies for the registry).
func WithMemSchedPolicy(name MemSchedPolicyName) StudyOption {
	return func(c *studyConfig) error {
		if _, err := memsys.PolicyByName(name); err != nil {
			return err
		}
		c.memsched = string(name)
		return nil
	}
}

// WithScale sets the workload scale divisor (a power of two; 1 is paper
// scale, larger is faster and coarser). The default is 32.
func WithScale(scale int) StudyOption {
	return func(c *studyConfig) error { c.cfg.Scale = scale; return nil }
}

// WithSeed sets the seed all simulation randomness derives from.
func WithSeed(seed uint64) StudyOption {
	return func(c *studyConfig) error { c.cfg.Seed = seed; return nil }
}

// WithRounds sets warmup (at least 0) and measured (at least 1)
// transactions per stream.
func WithRounds(warmup, measure int) StudyOption {
	return func(c *studyConfig) error { c.cfg.Warmup, c.cfg.Measure = warmup, measure; return nil }
}

// WithJobs sets the worker count for experiment cell fan-out (1 = serial;
// results are bit-identical either way). The default is GOMAXPROCS.
func WithJobs(jobs int) StudyOption {
	return func(c *studyConfig) error { c.jobs = jobs; return nil }
}

// WithCellCache persists finished cells under dir, keyed by configuration
// and simulator version, so repeated studies skip simulated cells.
func WithCellCache(dir string) StudyOption {
	return func(c *studyConfig) error { c.cacheDir = dir; return nil }
}

// WithFaults enables deterministic fault injection from a plan spec such as
// "oom:0.01,panic:0.1,budget:512MiB,cachecorrupt" (see the -faults flag).
func WithFaults(spec string) StudyOption {
	return func(c *studyConfig) error { c.faults = spec; return nil }
}

// WithTimeout bounds each cell's simulation wall time; an exceeded cell is
// reported failed instead of stalling the study. Cancellation is
// cooperative — the simulation stops at its next checkpoint on its own
// goroutine; nothing is abandoned — so a timed-out cell costs no residual
// CPU, memory, or telemetry writes.
func WithTimeout(d time.Duration) StudyOption {
	return func(c *studyConfig) error { c.timeout = d; return nil }
}

// WithContext attaches a context to the study: cancelling it cooperatively
// stops in-flight cells (they are reported failed) and fails future ones.
// Use it to bound a whole study by a deadline or to wire the study into a
// server request's lifetime.
func WithContext(ctx context.Context) StudyOption {
	return func(c *studyConfig) error { c.ctx = ctx; return nil }
}

// WithFidelity selects the measurement fidelity: "full" (or "") prices
// every measured transaction — the default, bit-reproducible mode every
// golden number is produced with — while "sampled" prices a SMARTS-style
// sample of the measured rounds (detailed windows separated by skipped
// rounds, with cache-warming rounds before each window). Sampled runs are
// much faster on long measurement phases and keep per-transaction statistics
// accurate to within a couple of percent; they are cache-keyed separately
// from full runs, so the two modes never serve each other stale results.
func WithFidelity(name string) StudyOption {
	return func(c *studyConfig) error { c.cfg.Fidelity = name; return nil }
}

// WithXeonLargePages enables DDmalloc's large-page optimization on Xeon
// (the paper's separate +11.7% variant).
func WithXeonLargePages(on bool) StudyOption {
	return func(c *studyConfig) error { c.cfg.XeonLargePages = on; return nil }
}

// WithTelemetry attaches a telemetry session to the study: every cell is
// traced, metrics accumulate, and Close writes the study's manifest into
// it. The disabled (nil) session is accepted at no cost.
func WithTelemetry(tel *Telemetry) StudyOption {
	return func(c *studyConfig) error { c.tel = tel; return nil }
}

// PressurePolicy tunes the global-budget controller: the pressure-ladder
// thresholds, the rebalance interval, the per-tenant floor, and the
// allocation-rate smoothing. The zero value means the defaults.
type PressurePolicy = budget.Policy

// WithGlobalBudget puts the study's concurrently running cells under one
// global byte budget: a MemBalancer-style controller (see internal/budget)
// apportions it across cells by allocation rate, moving each cell's
// address-space limits mid-run. Cells the controller never denies stay
// bit-identical to unbudgeted runs (and cache as usual); cells it does deny
// are marked pressured and excluded from memoization. 0 means unlimited.
func WithGlobalBudget(bytes uint64) StudyOption {
	return func(c *studyConfig) error { c.budget = bytes; return nil }
}

// WithPressurePolicy tunes the global-budget controller; ignored without
// WithGlobalBudget.
func WithPressurePolicy(p PressurePolicy) StudyOption {
	return func(c *studyConfig) error { c.pressure = p; return nil }
}

// NewStudy builds a study runner from options; the defaults are the
// interactive configuration (scale 32, 2 warmup + 3 measured transactions,
// the paper's seed, Xeon, GOMAXPROCS jobs, no cache, no faults, telemetry
// off). The scale, rounds and fidelity the options set are checked once,
// together, here.
func NewStudy(opts ...StudyOption) (*Study, error) {
	c := studyConfig{
		cfg:      experiments.DefaultConfig(),
		platform: "xeon",
		jobs:     runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	if err := c.cfg.Validate(); err != nil {
		return nil, err
	}
	r := experiments.NewRunner(c.cfg)
	if c.cacheDir != "" {
		cache, err := experiments.NewCellCache(c.cacheDir)
		if err != nil {
			return nil, err
		}
		r.Cache = cache
	}
	if c.faults != "" {
		plan, err := experiments.ParseFaults(c.faults)
		if err != nil {
			return nil, err
		}
		r.Faults = plan
	}
	r.Timeout = c.timeout
	r.Ctx = c.ctx
	r.Tel = c.tel
	s := &Study{
		r:        r,
		platform: c.platform,
		memsched: c.memsched,
		jobs:     c.jobs,
		tel:      c.tel,
		started:  time.Now(),
	}
	if c.budget > 0 {
		s.budget = budget.New(c.budget, c.pressure)
		s.budget.PublishTo(c.tel.Metrics())
		s.budget.Start()
		r.Budget = s.budget
	}
	return s, nil
}

// CellSpec selects one simulation cell. Platform defaults to the study's
// platform and Cores to 8 (the paper's headline core count).
type CellSpec struct {
	Platform string
	Alloc    AllocatorName
	Workload string
	Cores    int
	// Ruby selects the Ruby runtime (long-lived processes, no freeAll);
	// RestartEvery is its restart period in the paper's full-scale
	// transactions (0 = never restart) — the study rescales it like the
	// figures do, so 500 means the paper's configuration at any scale.
	Ruby         bool
	RestartEvery int
	// Budget, when > 0, caps each of the cell's per-stream address spaces
	// at this many mapped bytes for the whole run (the heap-limit sweep's
	// x-axis). Unlike WithGlobalBudget this is static and deterministic: a
	// budget below the allocator's memory floor fails the cell the same way
	// every time, and the outcome is memoized and cached.
	Budget uint64
	// MemSched selects the cell's memory system: empty inherits the
	// study's default (WithMemorySystem / WithMemSchedPolicy), "bus"
	// forces the paper's bus model, and a policy name from
	// MemSchedPolicies runs the DRAM model under that policy.
	MemSched string
}

// CellOutcome is everything one simulated cell reports.
type CellOutcome struct {
	// Machine is the solved timing result.
	Machine MachineResult
	// Footprint is the mean per-transaction peak memory consumption.
	Footprint float64
	// Calls is the per-stream-average allocator API traffic.
	Calls AllocStats
}

// Cell simulates one cell (memoized within the study). An invalid cell is
// rejected before it runs, and a cell whose simulation fails — panic,
// timeout — is surfaced as an error rather than zeros.
func (s *Study) Cell(spec CellSpec) (CellOutcome, error) {
	if spec.Platform == "" {
		spec.Platform = s.platform
	}
	if spec.Cores == 0 {
		spec.Cores = 8
	}
	if spec.Workload == "" && spec.Ruby {
		spec.Workload = workload.Rails().Name
	}
	memsched := spec.MemSched
	switch memsched {
	case "":
		memsched = s.memsched
	case "bus":
		memsched = ""
	}
	cell := experiments.Cell{
		Platform: spec.Platform, Alloc: string(spec.Alloc), Workload: spec.Workload,
		Cores: spec.Cores, Ruby: spec.Ruby, RestartEvery: s.r.RubyRestartPeriod(spec.RestartEvery),
		Budget: spec.Budget, MemSched: memsched,
	}
	if err := cell.Validate(); err != nil {
		return CellOutcome{}, err
	}
	cr := s.r.Run(cell)
	if cr.Failed {
		for _, f := range s.r.Failures() {
			if f.Cell == cell {
				return CellOutcome{}, f
			}
		}
		return CellOutcome{}, fmt.Errorf("webmm: cell %+v failed", cell)
	}
	return CellOutcome{Machine: cr.Res, Footprint: cr.Footprint, Calls: cr.Calls}, nil
}

// CompareAllocators runs one workload across the PHP-study allocators at
// the given core count on the study's platform, returning throughput
// relative to the default allocator, keyed by allocator name.
func (s *Study) CompareAllocators(workloadName string, cores int) (map[AllocatorName]float64, error) {
	base, err := s.Cell(CellSpec{Alloc: AllocDefault, Workload: workloadName, Cores: cores})
	if err != nil {
		return nil, err
	}
	out := make(map[AllocatorName]float64)
	for _, alloc := range experiments.PHPAllocators() {
		cr, err := s.Cell(CellSpec{Alloc: AllocatorName(alloc), Workload: workloadName, Cores: cores})
		if err != nil {
			return nil, err
		}
		if base.Machine.Throughput > 0 {
			out[AllocatorName(alloc)] = cr.Machine.Throughput / base.Machine.Throughput
		}
	}
	return out, nil
}

// ExperimentOutput is one experiment's rendered result.
type ExperimentOutput struct {
	Tables []*Table
	Charts []*Chart
}

// RunExperiment reproduces one of the paper's tables or figures: the cell
// plan is fanned out over the study's workers, then the tables (and, for
// fig5/fig7, charts) are rendered from the memoized results. Failed cells
// render as FAILED rows; inspect Failures for their errors.
func (s *Study) RunExperiment(name ExperimentName) (ExperimentOutput, error) {
	d, err := experiments.ExperimentByName(string(name))
	if err != nil {
		return ExperimentOutput{}, err
	}
	if d.Cells != nil {
		if cells := d.Cells(s.r); len(cells) > 0 {
			s.r.RunAll(cells, s.jobs)
		}
	}
	out := d.Run(s.r)
	s.ran = append(s.ran, d.Name)
	return ExperimentOutput{Tables: out.Tables, Charts: out.Charts}, nil
}

// Failures returns the cells that failed so far.
func (s *Study) Failures() []error {
	var out []error
	for _, f := range s.r.Failures() {
		out = append(out, f)
	}
	return out
}

// Close stops the study's budget controller (if any) and finalizes its
// telemetry: it assembles the run manifest (experiments run, per-cell
// accounting, cache behaviour, failures), stamps it, and closes the
// attached session, flushing its files. Without telemetry or a budget,
// Close is a no-op. The study itself stays usable (budget-free).
func (s *Study) Close() error {
	if s.budget != nil {
		s.budget.Close()
	}
	if !s.tel.Enabled() {
		return nil
	}
	m := s.r.BuildManifest(s.ran)
	m.Stamp(s.started)
	s.tel.SetManifest(m)
	return s.tel.Close()
}

// NewReportTable creates an aligned text/CSV table (re-exported for
// examples and tools building custom reports).
func NewReportTable(title string, header ...string) *Table {
	return report.New(title, header...)
}
