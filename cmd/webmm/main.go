// Command webmm regenerates the paper's tables and figures on the
// simulated Xeon and Niagara machines.
//
// Usage:
//
//	webmm -exp all                 # every table and figure
//	webmm -exp fig5 -scale 8       # one experiment at 1/8 scale
//	webmm -exp table4 -jobs 8      # fan the cell matrix out over 8 workers
//	webmm -exp all -cellcache .webmm-cache   # persist cells across runs
//	webmm -exp cell -platform xeon -alloc ddmalloc -workload 'MediaWiki(ro)' -cores 8
//	webmm -exp fig1 -cpuprofile cpu.pprof    # profile the simulator hot path
//	webmm -exp all -faults oom:0.05 -timeout 30s   # fault-injection run
//	webmm -exp fig1 -trace t.jsonl -metrics m.prom -manifest run.json
//	webmm -list                    # the experiment and allocator catalogues
//	webmm serve -addr :8080        # long-running HTTP experiment service
//
// Run webmm -h for the full experiment list (generated from the registry
// that also drives -exp parsing and EXPERIMENTS.md), and webmm serve -h for
// the service flags.
//
// webmm serve turns the runner into a long-lived service: POST /run queues
// cells or whole experiments onto a bounded worker pool (queue overflow is
// rejected with 429 + Retry-After), progress streams back as NDJSON, every
// request shares one on-disk cell cache and one live /metrics registry,
// and SIGTERM drains in-flight cells before exiting 0. Cell cancellation
// is cooperative end to end — a disconnecting client, per-request timeout,
// or shutdown stops the simulation loops at their next checkpoint instead
// of abandoning goroutines.
//
// Interactive runs cancel the same way: SIGINT/SIGTERM fails in-flight
// cells cooperatively, the failure report prints, and the process exits
// nonzero instead of dying mid-table.
//
// With -trace/-metrics/-manifest, the run writes its telemetry: a Chrome
// Trace Event (JSONL) span log of every cell and phase (load it in
// chrome://tracing or Perfetto), a Prometheus text (or .csv) metrics dump,
// and a JSON manifest recording configuration, per-cell wall time and
// throughput, cache behaviour, and failures. Telemetry observes only — the
// simulated results are bit-identical with and without it.
//
// With -faults, injected failures (OOM on fresh mappings, panics, a static
// memory budget, a mid-run budget squeeze, cache corruption) stress the
// recovery paths: failed cells render as FAILED rows, the run completes, a
// failure report goes to stderr, and the exit status is 1. The cell cache
// is bypassed whenever the plan perturbs simulation results. With -budget,
// a cell runs under a static per-stream heap limit (the heap-limit sweep's
// x-axis); a budget below the allocator's memory floor is a deterministic
// FAILED row. webmm serve additionally takes -global-budget, a dynamic
// MemBalancer-style budget apportioned across concurrent cells with a
// graceful-degradation admission ladder.
//
// Each experiment's cells are enumerated by its planner and simulated by a
// worker pool of -jobs goroutines before the tables render; cells that
// differ only in -memsched share one pricing pass. Cells are independently
// seeded, so the parallel results are bit-identical to -jobs 1, the serial
// loop. With -cellcache, finished cells are persisted (keyed by config and
// simulator version) and reloaded by later runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"webmm/internal/apprt"
	"webmm/internal/experiments"
	"webmm/internal/machine"
	"webmm/internal/memsys"
	"webmm/internal/report"
	"webmm/internal/sim"
	"webmm/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveCmd(os.Args[2:]))
	}
	os.Exit(run())
}

func run() int {
	var (
		exp      = flag.String("exp", "all", "experiment to run (see the list below)")
		scale    = flag.Int("scale", 32, "workload scale divisor (power of two; 1 = paper scale)")
		warmup   = flag.Int("warmup", 2, "warmup transactions per stream")
		measure  = flag.Int("measure", 3, "measured transactions per stream")
		seed     = flag.Uint64("seed", 20090615, "random seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation workers for the cell fan-out (1 = serial)")
		cellDir  = flag.String("cellcache", "", "directory of the on-disk cell-result cache (empty = disabled)")
		xeonLP   = flag.Bool("xeon-large-pages", false, "enable DDmalloc large pages on Xeon (paper's +11.7% variant)")
		fidelity = flag.String("fidelity", "full", "measurement fidelity: full (bit-reproducible) or sampled (SMARTS-style sampling; much faster on long -measure runs)")
		platform = flag.String("platform", "xeon", "cell: platform ("+strings.Join(machine.PlatformNames(), ", ")+")")
		alloc    = flag.String("alloc", "ddmalloc", "cell: allocator (see the list below)")
		wl       = flag.String("workload", "MediaWiki(ro)", "cell: workload name")
		cores    = flag.Int("cores", 8, "cell: active cores")
		memsched = flag.String("memsched", "", "cell: DRAM scheduling policy (see the list below; empty = the paper's bus model)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		faults   = flag.String("faults", "", "fault plan, e.g. 'oom:0.01,panic:0.1,budget:512MiB,squeeze:0.5,cachecorrupt' (see ParseFaults)")
		budgetFl = flag.String("budget", "", "cell: static per-stream heap limit, e.g. 64MiB (empty = unlimited; the heap-limit sweep's x-axis)")
		timeout  = flag.Duration("timeout", 0, "per-cell wall-clock budget (0 = unlimited); exceeding it fails the cell")

		tracePath    = flag.String("trace", "", "write a Chrome Trace Event (JSONL) span log to this file")
		metricsPath  = flag.String("metrics", "", "write metrics to this file on exit (Prometheus text; .csv suffix selects CSV)")
		manifestPath = flag.String("manifest", "", "write the run manifest (JSON) to this file on exit")
		list         = flag.Bool("list", false, "print the experiment and allocator catalogues and exit")
		validateTel  = flag.Bool("validate-telemetry", false, "after the run, validate the files written by -trace/-metrics/-manifest")
	)
	flag.Usage = usage
	flag.Parse()

	if *list {
		printCatalogues()
		return 0
	}

	// The config, and the cell the -platform/-alloc/-workload/-cores/
	// -budget/-memsched flags select, are validated for every -exp before
	// anything runs; the flag defaults form a valid cell.
	cfg := experiments.Config{
		Scale: *scale, Warmup: *warmup, Measure: *measure,
		Seed: *seed, XeonLargePages: *xeonLP, Fidelity: *fidelity,
	}
	cell := experiments.Cell{Platform: *platform, Alloc: *alloc, Workload: *wl, Cores: *cores, MemSched: *memsched}
	var err error
	if *budgetFl != "" {
		if cell.Budget, err = experiments.ParseSize(*budgetFl); err != nil {
			fmt.Fprintln(os.Stderr, "webmm: -budget:", err)
			return 2
		}
	}
	if err = cfg.Validate(); err == nil {
		err = cell.Validate()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "webmm:", err)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "webmm:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "webmm:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "webmm:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			_ = pprof.Lookup("allocs").WriteTo(f, 0)
		}()
	}

	started := time.Now()
	tel, err := telemetry.New(telemetry.Options{
		TracePath:    *tracePath,
		MetricsPath:  *metricsPath,
		ManifestPath: *manifestPath,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "webmm:", err)
		return 2
	}

	// SIGINT/SIGTERM cancels in-flight cells cooperatively: they fail,
	// the failure report prints, and the run exits nonzero — no abandoned
	// simulation work.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r := experiments.NewRunner(cfg)
	r.Tel = tel
	r.Ctx = ctx
	plan, err := experiments.ParseFaults(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webmm:", err)
		return 2
	}
	r.Faults = plan
	r.Timeout = *timeout
	if *cellDir != "" {
		cc, err := experiments.NewCellCache(*cellDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "webmm:", err)
			return 2
		}
		r.Cache = cc
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experiments.PaperExperimentNames()
	}
	var ran []string
	for _, name := range names {
		if err := runExperiment(r, name, *jobs, *csv, cell); err != nil {
			fmt.Fprintln(os.Stderr, "webmm:", err)
			return 2
		}
		ran = append(ran, name)
	}

	status := 0

	// Every experiment rendered (failed cells as FAILED rows); now report
	// what went wrong and signal it in the exit status.
	if fails := r.Failures(); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "webmm: %d cell(s) failed:\n", len(fails))
		for _, f := range fails {
			lim := ""
			if f.Cell.Budget > 0 {
				lim = fmt.Sprintf(" (budget %d bytes)", f.Cell.Budget)
			}
			fmt.Fprintf(os.Stderr, "  %s/%s/%s/%d cores%s: %v (attempts: %d)\n",
				f.Cell.Platform, f.Cell.Alloc, f.Cell.Workload, f.Cell.Cores,
				lim, f.Err, f.Attempts)
		}
		status = 1
	}

	if tel.Enabled() {
		m := r.BuildManifest(ran)
		m.Config.Jobs = *jobs
		m.Config.Faults = *faults
		if *timeout > 0 {
			m.Config.Timeout = timeout.String()
		}
		m.Config.CellCacheDir = *cellDir
		m.Stamp(started)
		tel.SetManifest(m)
		if err := tel.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "webmm:", err)
			return 2
		}
	}
	if *validateTel {
		if err := validateTelemetry(*tracePath, *metricsPath, *manifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "webmm: telemetry validation:", err)
			return 2
		}
		fmt.Fprintln(os.Stderr, "webmm: telemetry validated")
	}
	return status
}

// runExperiment fans the named experiment's cell plan out over the worker
// pool, then renders its tables (and, in table mode, charts) from the
// memoized results. "cell" is the one experiment outside the registry: a
// single cell selected by the -platform/-alloc/-workload/-cores flags.
func runExperiment(r *experiments.Runner, name string, jobs int, csv bool, cell experiments.Cell) error {
	if name == "cell" {
		printCell(r.Run(cell))
		return nil
	}
	d, err := experiments.ExperimentByName(name)
	if err != nil {
		return err
	}
	if d.Cells != nil {
		if cells := d.Cells(r); len(cells) > 0 {
			r.RunAll(cells, jobs)
		}
	}
	out := d.Run(r)
	for _, t := range out.Tables {
		if csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
	if !csv {
		for _, ch := range out.Charts {
			fmt.Println(ch.String())
		}
	}
	return nil
}

func validateTelemetry(tracePath, metricsPath, manifestPath string) error {
	if tracePath == "" && metricsPath == "" && manifestPath == "" {
		return fmt.Errorf("nothing to validate: give -trace, -metrics, or -manifest")
	}
	if tracePath != "" {
		n, err := telemetry.ValidateTraceFile(tracePath)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "webmm: trace ok (%d events)\n", n)
	}
	if metricsPath != "" {
		n, err := telemetry.ValidateMetricsFile(metricsPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "webmm: metrics ok (%d samples)\n", n)
	}
	if manifestPath != "" {
		m, err := telemetry.ValidateManifestFile(manifestPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "webmm: manifest ok (%d cells, %d failures)\n",
			len(m.Cells), len(m.Failures))
	}
	return nil
}

// usage prints the flag help plus the experiment and allocator lists, both
// generated from the registries so they cannot drift from -exp and -alloc
// parsing.
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(),
		"webmm regenerates the tables and figures of the paper's evaluation.\n\nUsage: webmm [flags]\n       webmm serve [flags]   (long-running HTTP experiment service; webmm serve -h)\n\nFlags:\n")
	flag.PrintDefaults()
	fmt.Fprintf(flag.CommandLine.Output(), "\nExperiments (-exp):\n%s", experiments.UsageExperiments())
	fmt.Fprintf(flag.CommandLine.Output(), "\nAllocators (-alloc):\n")
	for _, d := range apprt.Allocators() {
		fmt.Fprintf(flag.CommandLine.Output(), "  %-8s [%s] %s\n", d.Name, d.Study, d.Doc)
	}
	fmt.Fprintf(flag.CommandLine.Output(), "\nPlatforms (-platform):\n%s", machine.UsagePlatforms())
	fmt.Fprintf(flag.CommandLine.Output(), "\nMemory scheduling policies (-memsched; DRAM model, see -exp memsched):\n%s", memsys.UsagePolicies())
}

func printCatalogues() {
	fmt.Println("Experiments:")
	for _, d := range experiments.Experiments() {
		fmt.Printf("  %-7s %-9s %s\n          example: %s\n", d.Name, d.Ref, d.Doc, d.Example)
	}
	fmt.Println("\nAllocators:")
	for _, d := range apprt.Allocators() {
		fmt.Printf("  %-8s [%-5s] %s\n", d.Name, d.Study, d.Doc)
	}
	fmt.Println("\nPlatforms:")
	for _, d := range machine.Platforms() {
		fmt.Printf("  %-8s %s\n", d.Name, d.Doc)
	}
	fmt.Println("\nMemory scheduling policies (-memsched):")
	for _, d := range memsys.Policies() {
		fmt.Printf("  %-8s [%s] %s\n", d.Name, d.Ref, d.Doc)
	}
}

func printCell(cr experiments.CellResult) {
	if cr.Failed {
		fmt.Printf("Cell: %s / %s / %s / %d cores: FAILED (see stderr)\n",
			cr.Platform, cr.Alloc, cr.Workload, cr.Cores)
		return
	}
	t := report.New(fmt.Sprintf("Cell: %s / %s / %s / %d cores",
		cr.Platform, cr.Alloc, cr.Workload, cr.Cores), "metric", "value")
	res := cr.Res
	t.Add("throughput (txn/s)", report.F(res.Throughput, 2))
	t.Add("wall seconds", report.F(res.WallSeconds, 4))
	t.Add("bus utilization", report.PctOf(res.BusUtil))
	t.Add("bus latency multiplier", report.F(res.BusMult, 2))
	if ms := res.Mem; ms != nil {
		t.Add("memory system", fmt.Sprintf("%s/%s (%d banks)", ms.Model, ms.Policy, ms.Banks))
		t.Add("DRAM row hits", report.PctOf(ms.RowHitRate()))
		t.Add("DRAM row conflicts", report.PctOf(ms.RowConflictRate()))
		t.Add("DRAM row factor", report.F(ms.RowFactor, 3))
		t.Add("DRAM bank queue (avg/max)", fmt.Sprintf("%s / %d",
			report.F(ms.AvgQueueDepth, 1), ms.MaxQueueDepth))
	}
	t.Add("cycles/txn", report.F(res.CyclesPerTxn(), 0))
	mm := res.ClassCyclesPerTxn(sim.ClassAlloc)
	mmShare := 0.0
	if cpt := res.CyclesPerTxn(); cpt > 0 {
		mmShare = mm / cpt
	}
	t.Add("  memory management", fmt.Sprintf("%s (%s)",
		report.F(mm, 0), report.PctOf(mmShare)))
	t.Add("instructions/txn", report.F(res.PerTxn(res.Totals.Instr), 0))
	t.Add("L1I misses/txn", report.F(res.PerTxn(res.Totals.L1IMiss), 0))
	t.Add("L1D misses/txn", report.F(res.PerTxn(res.Totals.L1DMiss), 0))
	t.Add("D-TLB misses/txn", report.F(res.PerTxn(res.Totals.TLBMiss), 0))
	t.Add("L2 misses/txn", report.F(res.PerTxn(res.Totals.L2Miss()), 0))
	t.Add("bus txns/txn", report.F(res.PerTxn(res.Totals.BusTxns()), 0))
	t.Add("  demand fills", report.F(res.PerTxn(res.Totals.BusRead), 0))
	t.Add("  writebacks", report.F(res.PerTxn(res.Totals.BusWrite), 0))
	t.Add("  prefetch fills", report.F(res.PerTxn(res.Totals.BusPf), 0))
	for cls := 0; cls < sim.NumClasses; cls++ {
		c := res.ClassTotals[cls]
		t.Add(fmt.Sprintf("  class %q", sim.Class(cls)),
			fmt.Sprintf("L2miss=%.0f bus=%.0f L1D=%.0f L1I=%.0f pf=%.0f wb=%.0f rd=%.0f",
				res.PerTxn(c.L2Miss()), res.PerTxn(c.BusTxns()), res.PerTxn(c.L1DMiss),
				res.PerTxn(c.L1IMiss), res.PerTxn(c.BusPf), res.PerTxn(c.BusWrite), res.PerTxn(c.BusRead)))
	}
	t.Add("footprint/txn", report.MB(cr.Footprint))
	fmt.Println(t.String())
	txns := float64(res.Txns)
	if txns == 0 {
		txns = 1
	}
	tail := strings.Builder{}
	fmt.Fprintf(&tail, "calls/txn: malloc=%.0f free=%.0f realloc=%.0f avg=%.1fB\n",
		float64(cr.Calls.Mallocs)/txns,
		float64(cr.Calls.Frees)/txns,
		float64(cr.Calls.Reallocs)/txns,
		cr.Calls.AvgAllocSize())
	fmt.Print(tail.String())
}
