// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus allocator micro-benchmarks.
//
// Each BenchmarkFigN/BenchmarkTableN runs the corresponding experiment at a
// reduced scale (the committed full-fidelity numbers live in EXPERIMENTS.md,
// produced with cmd/webmm at finer scale) and reports the experiment's
// headline quantities as custom metrics, so `go test -bench .` both
// exercises the harness end-to-end and prints the paper's shapes.
//
// Run with: go test -bench . -benchmem   (one iteration per bench is normal;
// an experiment takes longer than the default benchtime).
package webmm_test

import (
	"runtime"
	"testing"

	"webmm"
	"webmm/internal/experiments"
	"webmm/internal/sim"
	"webmm/internal/workload"
)

// direct is the lookup that simulates each cell on demand through r.Run.
func direct(r *experiments.Runner) experiments.Lookup {
	return experiments.Lookup{Cfg: r.Cfg, Get: r.Run}
}

// benchRunner builds a fresh experiment runner at bench scale.
func benchRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Config{
		Scale: 64, Warmup: 1, Measure: 2, Seed: 20090615,
	})
}

// ---------------------------------------------------------------------------
// Allocator micro-benchmarks: the simulator-side cost of the allocator
// models themselves (Go time per simulated malloc/free pair).

func benchAllocator(b *testing.B, name webmm.AllocatorName) {
	b.Helper()
	sb := webmm.NewSandbox(webmm.Xeon(), 1)
	a, err := sb.NewAllocator(name)
	if err != nil {
		b.Fatal(err)
	}
	ptrs := make([]webmm.Ptr, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptrs = ptrs[:0]
		for j := 0; j < 128; j++ {
			ptrs = append(ptrs, a.Malloc(uint64(16+j%240)))
		}
		if a.SupportsFree() {
			for _, p := range ptrs {
				a.Free(p)
			}
		} else if a.SupportsFreeAll() {
			a.FreeAll()
		}
		if i%64 == 0 {
			sb.Warm() // drain the event buffer
		}
	}
}

func BenchmarkAllocDDmalloc(b *testing.B) { benchAllocator(b, "ddmalloc") }
func BenchmarkAllocRegion(b *testing.B)   { benchAllocator(b, "region") }
func BenchmarkAllocDefault(b *testing.B)  { benchAllocator(b, "default") }
func BenchmarkAllocGlibc(b *testing.B)    { benchAllocator(b, "glibc") }
func BenchmarkAllocHoard(b *testing.B)    { benchAllocator(b, "hoard") }
func BenchmarkAllocTCmalloc(b *testing.B) { benchAllocator(b, "tcmalloc") }
func BenchmarkAllocObstack(b *testing.B)  { benchAllocator(b, "obstack") }

// ---------------------------------------------------------------------------
// Experiment scheduler: serial vs parallel wall-clock over a fixed cell
// matrix (both platforms, all PHP allocators, 1 and 8 cores on MediaWiki
// read-only — 12 independent cells). The parallel variant fans out over
// GOMAXPROCS workers; results are bit-identical by construction, so the
// delta is pure scheduling.

func benchCellMatrix() []experiments.Cell {
	wl := workload.MediaWikiRO().Name
	var cells []experiments.Cell
	for _, plat := range []string{"xeon", "niagara"} {
		for _, alloc := range experiments.PHPAllocators() {
			for _, cores := range []int{1, 8} {
				cells = append(cells, experiments.Cell{
					Platform: plat, Alloc: alloc, Workload: wl, Cores: cores,
				})
			}
		}
	}
	return cells
}

func BenchmarkRunnerSerial(b *testing.B) {
	cells := benchCellMatrix()
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		r.RunAll(cells, 1)
	}
}

func BenchmarkRunnerParallel(b *testing.B) {
	cells := benchCellMatrix()
	jobs := runtime.GOMAXPROCS(0)
	b.ReportMetric(float64(jobs), "jobs")
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		r.RunAll(cells, jobs)
	}
}

// ---------------------------------------------------------------------------
// Figure 1: normalized CPU time per transaction, default vs region.

// BenchmarkFig1Cell simulates exactly one Figure 1 cell (MediaWiki
// read/write, default allocator, 8 Xeon cores) from a cold runner. This is
// the single-cell hot-path benchmark: ns/op here is the wall time every
// experiment pays per cell, dominated by Machine.price and Cache.Access.
func BenchmarkFig1Cell(b *testing.B) {
	wl := workload.MediaWikiRW().Name
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		cr := r.Run(experiments.Cell{
			Platform: "xeon", Alloc: "default", Workload: wl, Cores: 8,
		})
		b.ReportMetric(cr.Res.Throughput, "tps")
	}
}

// BenchmarkDRAMCell is BenchmarkFig1Cell with the banked DRAM model
// (FR-FCFS) in place of the bus: the delta over Fig1Cell is the full cost
// of recording every measured bus transaction and replaying the per-bank
// queues — the overhead a -memsched cell pays.
func BenchmarkDRAMCell(b *testing.B) {
	wl := workload.MediaWikiRW().Name
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		cr := r.Run(experiments.Cell{
			Platform: "xeon", Alloc: "default", Workload: wl, Cores: 8,
			MemSched: "frfcfs",
		})
		b.ReportMetric(cr.Res.Throughput, "tps")
	}
}

// BenchmarkCellL2Heavy simulates one 8-core Niagara cell. Niagara's L1s are
// a quarter the size of Xeon's (8 KiB D / 16 KiB I, 4-way) with no
// prefetcher, so a far larger share of accesses falls through to the shared
// 12-way L2: this is the benchmark that moves when L2 lookup or install
// costs change, where BenchmarkFig1Cell is dominated by L1 hits.
func BenchmarkCellL2Heavy(b *testing.B) {
	wl := workload.MediaWikiRW().Name
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		cr := r.Run(experiments.Cell{
			Platform: "niagara", Alloc: "default", Workload: wl, Cores: 8,
		})
		b.ReportMetric(cr.Res.Throughput, "tps")
	}
}

// BenchmarkFig1CellFullLong / BenchmarkFig1CellSampled run the Figure 1
// cell with a long measurement phase (-measure 64 at -scale 32) under both
// fidelity modes. The pair demonstrates the sampled mode's speedup on the
// long runs it exists for: with the default plan (period 16, 1 detail + 1
// warming round per period) sampled executes 9 of the 65 round-units full
// does, so sampled should run >= 5x faster at matching IPC (the <2%% error
// bound is pinned by TestSampledFidelityIPCError).
func benchFidelityCell(b *testing.B, fidelity string) {
	b.Helper()
	wl := workload.MediaWikiRW().Name
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Config{
			Scale: 32, Warmup: 1, Measure: 64, Seed: 20090615, Fidelity: fidelity,
		})
		cr := r.Run(experiments.Cell{
			Platform: "xeon", Alloc: "default", Workload: wl, Cores: 8,
		})
		if cr.Failed {
			b.Fatal("cell failed")
		}
		b.ReportMetric(cr.Res.IPC(), "ipc")
	}
}

func BenchmarkFig1CellFullLong(b *testing.B) { benchFidelityCell(b, "full") }
func BenchmarkFig1CellSampled(b *testing.B)  { benchFidelityCell(b, "sampled") }

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		f := experiments.Fig1(direct(r))
		b.ReportMetric(f.RegionMM+f.RegionOther, "region_cpu_rel")
		b.ReportMetric(f.DefaultMM, "default_mm_share")
	}
}

// ---------------------------------------------------------------------------
// Table 3: allocator calls per transaction.

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		rows := experiments.Table3(direct(r))
		b.ReportMetric(rows[0].Mallocs, "mediawiki_ro_mallocs")
		b.ReportMetric(rows[0].AvgSize, "mediawiki_ro_avg_bytes")
	}
}

// ---------------------------------------------------------------------------
// Figure 5: relative throughput, 8 cores, both platforms.

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		entries := experiments.Fig5(direct(r))
		var ddSum, regSum float64
		for _, e := range entries {
			ddSum += e.DD
			regSum += e.Region
		}
		n := float64(len(entries))
		b.ReportMetric((ddSum/n-1)*100, "dd_avg_gain_pct")
		b.ReportMetric((regSum/n-1)*100, "region_avg_gain_pct")
	}
}

// ---------------------------------------------------------------------------
// Figure 6: CPU-time breakdown on 8 Xeon cores.

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		entries := experiments.Fig6(direct(r))
		var defMM, regMM, ddMM, n float64
		for _, e := range entries {
			switch e.Alloc {
			case "default":
				defMM += e.MMPct
				n++
			case "region":
				regMM += e.MMPct
			case "ddmalloc":
				ddMM += e.MMPct
			}
		}
		b.ReportMetric(defMM/n, "default_mm_pct")
		b.ReportMetric(100*(1-regMM/defMM), "region_mm_cut_pct")
		b.ReportMetric(100*(1-ddMM/defMM), "dd_mm_cut_pct")
	}
}

// ---------------------------------------------------------------------------
// Figure 7: MediaWiki (read-only) scaling with core count.

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		points := experiments.Fig7(direct(r))
		for _, p := range points {
			if p.Platform == "xeon" && p.Cores == 8 {
				switch p.Alloc {
				case "region":
					b.ReportMetric(p.Throughput, "xeon8_region_tps")
				case "ddmalloc":
					b.ReportMetric(p.Throughput, "xeon8_dd_tps")
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Table 4: speedups with 8 cores.

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		rows := experiments.Table4(direct(r))
		var ddSpeedup, n float64
		for _, row := range rows {
			if row.Alloc == "ddmalloc" && row.Platform == "xeon" {
				ddSpeedup += row.Speedup
				n++
			}
		}
		b.ReportMetric(ddSpeedup/n, "dd_xeon_avg_speedup")
	}
}

// ---------------------------------------------------------------------------
// Figure 8: hardware-event deltas vs the default allocator.

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		entries := experiments.Fig8(direct(r))
		var regBus, ddBus, n float64
		for _, e := range entries {
			if e.Platform != "xeon" {
				continue
			}
			switch e.Alloc {
			case "region":
				regBus += e.DBusTxn
				n++
			case "ddmalloc":
				ddBus += e.DBusTxn
			}
		}
		b.ReportMetric(regBus/n, "region_bus_delta_pct")
		b.ReportMetric(ddBus/n, "dd_bus_delta_pct")
	}
}

// ---------------------------------------------------------------------------
// Figure 9: memory consumption.

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		entries := experiments.Fig9(direct(r))
		var def, reg, dd float64
		for _, e := range entries {
			if e.Workload != workload.MediaWikiRO().Name {
				continue
			}
			switch e.Alloc {
			case "default":
				def = e.Bytes
			case "region":
				reg = e.Bytes
			case "ddmalloc":
				dd = e.Bytes
			}
		}
		b.ReportMetric(reg/def, "region_footprint_x")
		b.ReportMetric(dd/def, "dd_footprint_x")
	}
}

// ---------------------------------------------------------------------------
// Figures 10-12: the Ruby on Rails study. Coarser scale: the Ruby cells run
// hundreds of scaled transactions so processes age and restart on schedule.

func benchRubyRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Config{
		Scale: 128, Warmup: 1, Measure: 2, Seed: 20090615,
	})
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRubyRunner()
		entries := experiments.Fig10(direct(r))
		for _, e := range entries {
			if e.Alloc == "ddmalloc" {
				b.ReportMetric((e.RelToGlibc-1)*100, "dd_vs_glibc_pct")
			}
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRubyRunner()
		entries := experiments.Fig11(direct(r))
		for _, e := range entries {
			if e.Alloc == "glibc" {
				b.ReportMetric(e.MMPct, "glibc_mm_pct")
			}
			if e.Alloc == "ddmalloc" {
				b.ReportMetric(e.MMPct, "dd_mm_pct")
			}
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRubyRunner()
		entries := experiments.Fig12(direct(r))
		for _, e := range entries {
			if e.Alloc == "ddmalloc" && e.Period == 20 {
				b.ReportMetric((e.VsNoRestart-1)*100, "dd_restart20_pct")
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationSegmentSize sweeps DDmalloc's segment size (the paper's
// §3.2 tunable: larger segments cost fewer instructions but more memory and
// cache misses).
func BenchmarkAblationSegmentSize(b *testing.B) {
	for _, segKiB := range []uint64{8, 32, 128} {
		b.Run(bname("seg", segKiB), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sb := webmm.NewSandbox(webmm.Xeon(), 1)
				dd := sb.NewDDmalloc(webmm.DDOptions{SegmentSize: segKiB * 1024})
				var ptrs []webmm.Ptr
				for j := 0; j < 20000; j++ {
					p := dd.Malloc(uint64(16 + j%500))
					sb.Touch(p, 32, true)
					ptrs = append(ptrs, p)
					if len(ptrs) > 64 {
						dd.Free(ptrs[0])
						ptrs = ptrs[1:]
					}
				}
				dd.FreeAll()
				sb.Measure()
				res := sb.Result()
				b.ReportMetric(res.PerTxn(res.Totals.L2Miss()), "l2_misses")
				b.ReportMetric(float64(dd.PeakFootprint()), "peak_bytes")
			}
		})
	}
}

// BenchmarkAblationObstackVsRegion compares the two region-style allocators
// (the paper kept its own because it outperformed obstack).
func BenchmarkAblationObstackVsRegion(b *testing.B) {
	for _, name := range []webmm.AllocatorName{"region", "obstack"} {
		b.Run(string(name), func(b *testing.B) {
			sb := webmm.NewSandbox(webmm.Xeon(), 1)
			a, err := sb.NewAllocator(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 256; j++ {
					a.Malloc(64)
				}
				a.FreeAll()
				if i%32 == 0 {
					sb.Warm()
				}
			}
		})
	}
}

// BenchmarkAblationReapVsNeighbours places Reaps (the paper's related-work
// hybrid) between the region allocator and DDmalloc on one workload: it
// keeps region's bump allocation and bulk free but pays Lea-style costs on
// per-object free — the paper's argument for why defrag-dodging beats
// "custom region + general free".
func BenchmarkAblationReapVsNeighbours(b *testing.B) {
	for _, alloc := range []string{"region", "reap", "ddmalloc"} {
		b.Run(alloc, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := benchRunner()
				cr := r.Run(experiments.Cell{Platform: "xeon", Alloc: alloc,
					Workload: workload.MediaWikiRO().Name, Cores: 8})
				b.ReportMetric(cr.Res.Throughput, "tps")
				b.ReportMetric(cr.Res.ClassCyclesPerTxn(sim.ClassAlloc), "mm_cycles_per_txn")
			}
		})
	}
}

// BenchmarkSimulatorEventThroughput measures the raw pricing speed of the
// cache hierarchy (simulator events per second), the quantity that bounds
// every experiment's wall time.
func BenchmarkSimulatorEventThroughput(b *testing.B) {
	sb := webmm.NewSandbox(webmm.Xeon(), 1)
	dd := sb.NewDDmalloc(webmm.DDOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := dd.Malloc(64)
		sb.Touch(p, 64, true)
		dd.Free(p)
		if i%1024 == 0 {
			sb.Warm()
		}
	}
}

func bname(prefix string, v uint64) string {
	return prefix + "_" + itoa(v) + "KiB"
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Silence unused-import guards if figure sets shrink during refactors.
var _ = sim.ClassAlloc
