package experiments

import (
	"webmm/internal/report"
	"webmm/internal/sim"
	"webmm/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 1: normalized CPU time per transaction, default vs region-based,
// MediaWiki on 8 Xeon cores, split into memory management and others.

// Fig1Result holds the two stacked bars of Figure 1 (default = 1.0 total).
type Fig1Result struct {
	DefaultMM, DefaultOther float64
	RegionMM, RegionOther   float64
	Failed                  bool
}

// Fig1 runs the Figure 1 experiment.
func Fig1(l Lookup) Fig1Result {
	wl := workload.MediaWikiRW().Name
	def := l.Get(phpCell("xeon", "default", wl, 8))
	reg := l.Get(phpCell("xeon", "region", wl, 8))

	defTotal := def.Res.CyclesPerTxn()
	var out Fig1Result
	if def.Failed || reg.Failed || defTotal == 0 {
		out.Failed = true
		return out
	}
	out.DefaultMM = def.Res.ClassCyclesPerTxn(sim.ClassAlloc) / defTotal
	out.DefaultOther = (defTotal - def.Res.ClassCyclesPerTxn(sim.ClassAlloc)) / defTotal
	out.RegionMM = reg.Res.ClassCyclesPerTxn(sim.ClassAlloc) / defTotal
	out.RegionOther = (reg.Res.CyclesPerTxn() - reg.Res.ClassCyclesPerTxn(sim.ClassAlloc)) / defTotal
	return out
}

// Table renders Figure 1's bars as rows.
func (f Fig1Result) Table() *report.Table {
	t := report.New("Figure 1: normalized CPU time per transaction (MediaWiki rw, 8 Xeon cores)",
		"allocator", "memory management", "others", "total")
	if f.Failed {
		t.Add("default", "FAILED", "-", "-")
		t.Add("region-based", "FAILED", "-", "-")
		return t
	}
	t.Add("default", report.F(f.DefaultMM, 3), report.F(f.DefaultOther, 3),
		report.F(f.DefaultMM+f.DefaultOther, 3))
	t.Add("region-based", report.F(f.RegionMM, 3), report.F(f.RegionOther, 3),
		report.F(f.RegionMM+f.RegionOther, 3))
	return t
}

// ---------------------------------------------------------------------------
// Table 2: the workloads.

// Table2 renders the workload summary.
func Table2() *report.Table {
	t := report.New("Table 2: workloads used in the measurements",
		"workload", "version", "description")
	for _, p := range workload.Profiles() {
		t.Add(p.Name, p.Version, p.Desc)
	}
	return t
}

// ---------------------------------------------------------------------------
// Table 3: malloc/free/realloc calls per transaction and mean allocation
// size, regenerated by running each workload against the default allocator.

// Table3Row is one workload's measured allocator traffic, reported at full
// (paper) scale.
type Table3Row struct {
	Workload string
	Mallocs  float64
	Frees    float64
	Reallocs float64
	AvgSize  float64
	Failed   bool
}

// Table3 regenerates the paper's Table 3. A failed cell yields a row marked
// Failed instead of numbers.
func Table3(l Lookup) []Table3Row {
	var rows []Table3Row
	for _, p := range workload.Profiles() {
		cr := l.Get(phpCell("xeon", "default", p.Name, 1))
		txns := float64(cr.Res.Txns)
		if cr.Failed || txns == 0 {
			rows = append(rows, Table3Row{Workload: p.Name, Failed: true})
			continue
		}
		scale := float64(l.Cfg.Scale)
		rows = append(rows, Table3Row{
			Workload: p.Name,
			Mallocs:  float64(cr.Calls.Mallocs) / txns * scale,
			Frees:    float64(cr.Calls.Frees) / txns * scale,
			Reallocs: float64(cr.Calls.Reallocs) / txns * scale,
			AvgSize:  cr.Calls.AvgAllocSize(),
		})
	}
	return rows
}

// Table3Table renders Table 3.
func Table3Table(rows []Table3Row) *report.Table {
	t := report.New("Table 3: allocator calls per transaction (full-scale equivalent)",
		"workload", "malloc", "free", "realloc", "alloc size (byte)")
	for _, r := range rows {
		if r.Failed {
			t.Add(r.Workload, "FAILED", "-", "-", "-")
			continue
		}
		t.Add(r.Workload, report.F(r.Mallocs, 0), report.F(r.Frees, 0),
			report.F(r.Reallocs, 0), report.F(r.AvgSize, 1))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 5: relative throughput over the default allocator, all workloads,
// 8 cores, Xeon and Niagara.

// Fig5Entry is one bar pair of Figure 5.
type Fig5Entry struct {
	Platform, Workload string
	Region, DD         float64 // throughput relative to default
	Failed             bool    // any of the pair's cells failed
}

// Fig5 runs the Figure 5 matrix.
func Fig5(l Lookup) []Fig5Entry {
	var out []Fig5Entry
	for _, plat := range []string{"xeon", "niagara"} {
		for _, p := range workload.Profiles() {
			def := l.Get(phpCell(plat, "default", p.Name, 8))
			reg := l.Get(phpCell(plat, "region", p.Name, 8))
			dd := l.Get(phpCell(plat, "ddmalloc", p.Name, 8))
			out = append(out, Fig5Entry{
				Platform: plat, Workload: p.Name,
				Region: relThroughput(reg, def),
				DD:     relThroughput(dd, def),
				Failed: def.Failed || reg.Failed || dd.Failed,
			})
		}
	}
	return out
}

// Fig5Table renders Figure 5.
func Fig5Table(entries []Fig5Entry) *report.Table {
	t := report.New("Figure 5: relative throughput over the default allocator (8 cores)",
		"platform", "workload", "region-based", "DDmalloc")
	for _, e := range entries {
		if e.Failed {
			t.Add(e.Platform, e.Workload, "FAILED", "FAILED")
			continue
		}
		t.Add(e.Platform, e.Workload, report.Pct(e.Region), report.Pct(e.DD))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 6: breakdown of CPU time per transaction on 8 Xeon cores,
// normalized so the default allocator totals 100%.

// Fig6Entry is one stacked bar.
type Fig6Entry struct {
	Workload, Alloc string
	MMPct, OtherPct float64
	Failed          bool
}

// Fig6 runs the Figure 6 matrix.
func Fig6(l Lookup) []Fig6Entry {
	var out []Fig6Entry
	for _, p := range workload.Profiles() {
		def := l.Get(phpCell("xeon", "default", p.Name, 8))
		base := def.Res.CyclesPerTxn()
		for _, alloc := range PHPAllocators() {
			cr := l.Get(phpCell("xeon", alloc, p.Name, 8))
			if cr.Failed || def.Failed || base == 0 {
				out = append(out, Fig6Entry{Workload: p.Name, Alloc: alloc, Failed: true})
				continue
			}
			mm := cr.Res.ClassCyclesPerTxn(sim.ClassAlloc)
			total := cr.Res.CyclesPerTxn()
			out = append(out, Fig6Entry{
				Workload: p.Name, Alloc: alloc,
				MMPct:    mm / base * 100,
				OtherPct: (total - mm) / base * 100,
			})
		}
	}
	return out
}

// Fig6Table renders Figure 6.
func Fig6Table(entries []Fig6Entry) *report.Table {
	t := report.New("Figure 6: CPU time per transaction breakdown, 8 Xeon cores (default = 100)",
		"workload", "allocator", "memory management", "others", "total")
	for _, e := range entries {
		if e.Failed {
			t.Add(e.Workload, e.Alloc, "FAILED", "-", "-")
			continue
		}
		t.Add(e.Workload, e.Alloc, report.F(e.MMPct, 1), report.F(e.OtherPct, 1),
			report.F(e.MMPct+e.OtherPct, 1))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 7: MediaWiki (read-only) throughput with increasing core counts.

// Fig7Cores is the sweep the figure plots.
var Fig7Cores = []int{1, 2, 4, 8}

// Fig7Point is one curve point.
type Fig7Point struct {
	Platform, Alloc string
	Cores           int
	Throughput      float64
	Failed          bool
}

// Fig7 runs the scaling sweep on both platforms.
func Fig7(l Lookup) []Fig7Point {
	wl := workload.MediaWikiRO().Name
	var out []Fig7Point
	for _, plat := range []string{"xeon", "niagara"} {
		for _, alloc := range PHPAllocators() {
			for _, cores := range Fig7Cores {
				cr := l.Get(phpCell(plat, alloc, wl, cores))
				out = append(out, Fig7Point{
					Platform: plat, Alloc: alloc, Cores: cores,
					Throughput: cr.Res.Throughput,
					Failed:     cr.Failed,
				})
			}
		}
	}
	return out
}

// Fig7Table renders the sweep.
func Fig7Table(points []Fig7Point) *report.Table {
	t := report.New("Figure 7: MediaWiki (read-only) throughput vs cores",
		"platform", "allocator", "cores", "transactions/sec")
	for _, p := range points {
		if p.Failed {
			t.Add(p.Platform, p.Alloc, report.F(float64(p.Cores), 0), "FAILED")
			continue
		}
		t.Add(p.Platform, p.Alloc, report.F(float64(p.Cores), 0), report.F(p.Throughput, 1))
	}
	return t
}

// ---------------------------------------------------------------------------
// Table 4: 1-core and 8-core throughput and speedups for every workload,
// allocator, and platform.

// Table4Row is one (workload, allocator, platform) line.
type Table4Row struct {
	Workload, Alloc, Platform string
	T1, T8                    float64 // transactions/sec
	Rel1, Rel8                float64 // relative to default at same cores
	Speedup                   float64 // T8 / T1
	Failed                    bool    // any contributing cell failed
}

// Table4 runs the full speedup matrix.
func Table4(l Lookup) []Table4Row {
	var out []Table4Row
	for _, p := range workload.Profiles() {
		for _, plat := range []string{"xeon", "niagara"} {
			def1 := l.Get(phpCell(plat, "default", p.Name, 1))
			def8 := l.Get(phpCell(plat, "default", p.Name, 8))
			for _, alloc := range PHPAllocators() {
				c1 := l.Get(phpCell(plat, alloc, p.Name, 1))
				c8 := l.Get(phpCell(plat, alloc, p.Name, 8))
				row := Table4Row{
					Workload: p.Name, Alloc: alloc, Platform: plat,
					T1: c1.Res.Throughput, T8: c8.Res.Throughput,
					Rel1:   relThroughput(c1, def1),
					Rel8:   relThroughput(c8, def8),
					Failed: c1.Failed || c8.Failed || def1.Failed || def8.Failed,
				}
				if row.T1 > 0 {
					row.Speedup = row.T8 / row.T1
				}
				out = append(out, row)
			}
		}
	}
	return out
}

// Table4Table renders Table 4.
func Table4Table(rows []Table4Row) *report.Table {
	t := report.New("Table 4: speedups with 8 cores",
		"workload", "platform", "allocator", "tps@1", "rel@1", "tps@8", "rel@8", "speedup")
	for _, r := range rows {
		if r.Failed {
			t.Add(r.Workload, r.Platform, r.Alloc, "FAILED", "-", "-", "-", "-")
			continue
		}
		t.Add(r.Workload, r.Platform, r.Alloc,
			report.F(r.T1, 1), report.Pct(r.Rel1),
			report.F(r.T8, 1), report.Pct(r.Rel8),
			report.X(r.Speedup))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 8: change in hardware events per transaction vs the default
// allocator on 8 cores.

// Fig8Entry is one allocator's per-workload event deltas on one platform.
type Fig8Entry struct {
	Platform, Workload, Alloc              string
	DInstr, DL1I, DL1D, DTLB, DL2, DBusTxn float64 // % change vs default
	Failed                                 bool
}

// Fig8 computes per-workload event deltas for region and DDmalloc.
func Fig8(l Lookup) []Fig8Entry {
	var out []Fig8Entry
	for _, plat := range []string{"xeon", "niagara"} {
		for _, p := range workload.Profiles() {
			def := l.Get(phpCell(plat, "default", p.Name, 8))
			for _, alloc := range []string{"ddmalloc", "region"} {
				cr := l.Get(phpCell(plat, alloc, p.Name, 8))
				if cr.Failed || def.Failed {
					out = append(out, Fig8Entry{
						Platform: plat, Workload: p.Name, Alloc: alloc, Failed: true,
					})
					continue
				}
				out = append(out, Fig8Entry{
					Platform: plat, Workload: p.Name, Alloc: alloc,
					DInstr:  delta(perTxn(cr, cr.Res.Totals.Instr), perTxn(def, def.Res.Totals.Instr)),
					DL1I:    delta(perTxn(cr, cr.Res.Totals.L1IMiss), perTxn(def, def.Res.Totals.L1IMiss)),
					DL1D:    delta(perTxn(cr, cr.Res.Totals.L1DMiss), perTxn(def, def.Res.Totals.L1DMiss)),
					DTLB:    delta(perTxn(cr, cr.Res.Totals.TLBMiss), perTxn(def, def.Res.Totals.TLBMiss)),
					DL2:     delta(perTxn(cr, cr.Res.Totals.L2Miss()), perTxn(def, def.Res.Totals.L2Miss())),
					DBusTxn: delta(perTxn(cr, cr.Res.Totals.BusTxns()), perTxn(def, def.Res.Totals.BusTxns())),
				})
			}
		}
	}
	return out
}

func perTxn(cr CellResult, v uint64) float64 {
	if cr.Res.Txns == 0 {
		return 0
	}
	return float64(v) / float64(cr.Res.Txns)
}

func delta(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (x/base - 1) * 100
}

// Fig8Table renders Figure 8.
func Fig8Table(entries []Fig8Entry) *report.Table {
	t := report.New("Figure 8: change in events per transaction vs default (8 cores, %)",
		"platform", "workload", "allocator", "instr", "L1I miss", "L1D miss", "D-TLB miss", "L2 miss", "bus txn")
	for _, e := range entries {
		if e.Failed {
			t.Add(e.Platform, e.Workload, e.Alloc, "FAILED", "-", "-", "-", "-", "-")
			continue
		}
		t.Add(e.Platform, e.Workload, e.Alloc,
			report.F(e.DInstr, 1), report.F(e.DL1I, 1), report.F(e.DL1D, 1),
			report.F(e.DTLB, 1), report.F(e.DL2, 1), report.F(e.DBusTxn, 1))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 9: memory consumption per transaction.

// Fig9Entry is one bar: a workload's average per-transaction memory
// consumption under one allocator.
type Fig9Entry struct {
	Workload, Alloc string
	Bytes           float64 // full-scale equivalent
	Failed          bool
}

// Fig9 measures memory consumption on one Xeon core (consumption is
// per-process and core-count independent).
func Fig9(l Lookup) []Fig9Entry {
	var out []Fig9Entry
	for _, p := range workload.Profiles() {
		for _, alloc := range PHPAllocators() {
			cr := l.Get(phpCell("xeon", alloc, p.Name, 1))
			out = append(out, Fig9Entry{
				Workload: p.Name, Alloc: alloc,
				Bytes:  cr.Footprint * float64(l.Cfg.Scale),
				Failed: cr.Failed,
			})
		}
	}
	return out
}

// Fig9Table renders Figure 9.
func Fig9Table(entries []Fig9Entry) *report.Table {
	t := report.New("Figure 9: memory consumed per transaction (full-scale equivalent)",
		"workload", "allocator", "memory")
	for _, e := range entries {
		if e.Failed {
			t.Add(e.Workload, e.Alloc, "FAILED")
			continue
		}
		t.Add(e.Workload, e.Alloc, report.MB(e.Bytes))
	}
	return t
}
