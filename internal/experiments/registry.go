package experiments

import (
	"context"
	"fmt"
	"strings"

	"webmm/internal/report"
)

// Output is everything one experiment renders: one or more tables, plus
// optional bar charts (shown by the CLI in table mode only).
type Output struct {
	Tables []*report.Table
	Charts []*report.Chart
}

// Lookup is what a figure reads: the Config its cells ran under and each
// cell's result. Figures never simulate; Runner.Experiment hands them the
// results of their own plan, and tests may hand them a Runner's Run.
type Lookup struct {
	Cfg Config
	Get func(Cell) CellResult
}

// Descriptor describes one experiment of the paper's evaluation. The
// registry below is the single source of truth for experiment selection:
// the CLI's -exp flag, its usage text, the generated EXPERIMENTS.md section,
// and the public webmm API all enumerate it rather than keeping their own
// name lists.
type Descriptor struct {
	// Name is the selection key, e.g. "fig5".
	Name string
	// Ref is the paper artifact it reproduces, e.g. "Figure 5".
	Ref string
	// Doc is a one-line description of what the experiment shows.
	Doc string
	// Example is a one-line CLI invocation.
	Example string
	// Render reads the experiment's cells through the lookup and renders
	// them. The cells it reads are its plan (CellsFor), so which cells it
	// reads must not depend on their results.
	Render func(l Lookup) Output
	// Extra marks an extension beyond the paper's evaluation. "all" skips
	// extras — partly so the paper's reporting output stays byte-identical
	// across versions, partly because an extra may fail cells by design
	// (the heap-limit sweep's below-floor FAILED rows would turn every
	// "all" run into exit status 1). Extras run when named explicitly.
	Extra bool
}

func tables(ts ...*report.Table) Output { return Output{Tables: ts} }

// registry lists the experiments in the paper's reporting order.
var registry = []Descriptor{
	{
		Name: "fig1", Ref: "Figure 1",
		Doc:     "normalized CPU time per transaction, default vs region-based (MediaWiki rw, 8 Xeon cores)",
		Example: "webmm -exp fig1 -scale 8",
		Render:  func(l Lookup) Output { return tables(Fig1(l).Table()) },
	},
	{
		Name: "table2", Ref: "Table 2",
		Doc:     "the workloads used in the measurements (no simulation)",
		Example: "webmm -exp table2",
		Render:  func(Lookup) Output { return tables(Table2()) },
	},
	{
		Name: "table3", Ref: "Table 3",
		Doc:     "allocator calls per transaction and mean allocation size, per workload",
		Example: "webmm -exp table3 -scale 8",
		Render:  func(l Lookup) Output { return tables(Table3Table(Table3(l))) },
	},
	{
		Name: "fig5", Ref: "Figure 5",
		Doc:     "relative throughput over the default allocator, all workloads, 8 cores, both platforms",
		Example: "webmm -exp fig5 -jobs 8",
		Render: func(l Lookup) Output {
			entries := Fig5(l)
			out := tables(Fig5Table(entries))
			for _, plat := range []string{"xeon", "niagara"} {
				ch := report.NewChart(fmt.Sprintf("Relative throughput on %s (| = default)", plat))
				ch.SetBaseline(1.0)
				for _, e := range entries {
					if e.Platform == plat {
						ch.Add(e.Workload+" region", e.Region)
						ch.Add(e.Workload+" DDmalloc", e.DD)
					}
				}
				out.Charts = append(out.Charts, ch)
			}
			return out
		},
	},
	{
		Name: "fig6", Ref: "Figure 6",
		Doc:     "CPU time per transaction broken into memory management and others, 8 Xeon cores",
		Example: "webmm -exp fig6 -jobs 8",
		Render:  func(l Lookup) Output { return tables(Fig6Table(Fig6(l))) },
	},
	{
		Name: "fig7", Ref: "Figure 7",
		Doc:     "MediaWiki (read-only) throughput scaling with core count, both platforms",
		Example: "webmm -exp fig7 -jobs 8",
		Render: func(l Lookup) Output {
			points := Fig7(l)
			out := tables(Fig7Table(points))
			for _, plat := range []string{"xeon", "niagara"} {
				ch := report.NewChart(fmt.Sprintf("MediaWiki(ro) on %s, txns/sec by cores", plat))
				for _, p := range points {
					if p.Platform == plat {
						ch.Add(fmt.Sprintf("%-8s @%d", p.Alloc, p.Cores), p.Throughput)
					}
				}
				out.Charts = append(out.Charts, ch)
			}
			return out
		},
	},
	{
		Name: "table4", Ref: "Table 4",
		Doc:     "1- and 8-core throughput and speedups for every workload, allocator, and platform",
		Example: "webmm -exp table4 -jobs 8 -fidelity sampled -cellcache .webmm-cache",
		Render:  func(l Lookup) Output { return tables(Table4Table(Table4(l))) },
	},
	{
		Name: "fig8", Ref: "Figure 8",
		Doc:     "change in hardware events per transaction vs the default allocator, 8 cores",
		Example: "webmm -exp fig8 -jobs 8",
		Render:  func(l Lookup) Output { return tables(Fig8Table(Fig8(l))) },
	},
	{
		Name: "fig9", Ref: "Figure 9",
		Doc:     "memory consumed per transaction, per workload and allocator",
		Example: "webmm -exp fig9",
		Render:  func(l Lookup) Output { return tables(Fig9Table(Fig9(l))) },
	},
	{
		Name: "fig10", Ref: "Figure 10",
		Doc:     "Rails throughput under glibc, Hoard, TCMalloc and DDmalloc with periodic restarts",
		Example: "webmm -exp fig10",
		Render:  func(l Lookup) Output { return tables(Fig10Table(Fig10(l))) },
	},
	{
		Name: "fig11", Ref: "Figure 11",
		Doc:     "Rails CPU time breakdown (memory management, restart, others)",
		Example: "webmm -exp fig11",
		Render:  func(l Lookup) Output { return tables(Fig11Table(Fig11(l))) },
	},
	{
		Name: "fig12", Ref: "Figure 12",
		Doc:     "Rails throughput vs process restart period, glibc and DDmalloc",
		Example: "webmm -exp fig12",
		Render:  func(l Lookup) Output { return tables(Fig12Table(Fig12(l))) },
	},
	{
		Name: "heaplimit", Ref: "Extension", Extra: true,
		Doc:     "throughput vs per-stream heap limit for the PHP allocators; FAILED rows mark each allocator's memory floor",
		Example: "webmm -exp heaplimit -scale 8",
		Render: func(l Lookup) Output {
			entries := HeapLimit(l)
			out := tables(HeapLimitTable(entries))
			out.Charts = append(out.Charts, HeapLimitChart(entries))
			return out
		},
	},
	{
		Name: "memsched", Ref: "Extension", Extra: true,
		Doc:     "allocator x DRAM scheduling policy x cores: throughput vs the bus model and row-buffer hit/conflict rates",
		Example: "webmm -exp memsched -scale 64 -jobs 8",
		Render: func(l Lookup) Output {
			entries := MemSched(l)
			out := tables(MemSchedTable(entries))
			out.Charts = append(out.Charts, MemSchedChart(entries))
			return out
		},
	},
}

// Experiments returns the experiment descriptors in the paper's reporting
// order. The slice is a copy; the registry itself is immutable.
func Experiments() []Descriptor {
	out := make([]Descriptor, len(registry))
	copy(out, registry)
	return out
}

// ExperimentByName looks an experiment up by its selection key.
func ExperimentByName(name string) (Descriptor, error) {
	for _, d := range registry {
		if d.Name == name {
			return d, nil
		}
	}
	return Descriptor{}, fmt.Errorf("experiments: unknown experiment %q (valid: %s, all, cell)",
		name, strings.Join(ExperimentNames(), ", "))
}

// ExperimentNames lists the registered experiment names in order.
func ExperimentNames() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.Name
	}
	return out
}

// PaperExperimentNames lists the experiments of the paper's evaluation —
// what "all" runs — excluding extensions (Descriptor.Extra).
func PaperExperimentNames() []string {
	var out []string
	for _, d := range registry {
		if !d.Extra {
			out = append(out, d.Name)
		}
	}
	return out
}

// CellsFor returns the plan of the named experiment (see plan). "all"
// returns the union of the paper experiments' plans; table2 and unknown
// names return nil.
func (r *Runner) CellsFor(name string) []Cell {
	names := []string{name}
	if name == "all" {
		names = PaperExperimentNames()
	}
	_, cells, _ := r.plan(names)
	return cells
}

// plan looks the named experiments up and returns them with their plan:
// the distinct cells their renders read, in order of first appearance. It
// renders each once through a recording lookup that answers every read
// with a failed result and simulates nothing.
func (r *Runner) plan(names []string) ([]Descriptor, []Cell, error) {
	ds := make([]Descriptor, len(names))
	var cells []Cell
	seen := make(map[Cell]bool)
	record := Lookup{Cfg: r.Cfg, Get: func(c Cell) CellResult {
		if !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
		return CellResult{Cell: c, Failed: true}
	}}
	for i, n := range names {
		d, err := ExperimentByName(n)
		if err != nil {
			return nil, nil, err
		}
		ds[i] = d
		d.Render(record)
	}
	return ds, cells, nil
}

// Fig5Cells, Fig10Cells, Fig12Cells and MemSchedCells are the plans
// perfbench's workloads run.
func (r *Runner) Fig5Cells() []Cell     { return r.CellsFor("fig5") }
func (r *Runner) Fig10Cells() []Cell    { return r.CellsFor("fig10") }
func (r *Runner) Fig12Cells() []Cell    { return r.CellsFor("fig12") }
func (r *Runner) MemSchedCells() []Cell { return r.CellsFor("memsched") }

// Experiments runs the named experiments as one plan, the one path the
// CLI, the Study API and webmm serve share: it plans the union of their
// reads (plan), resolves it once through RunAll's worker pool and sibling
// grouping under ctx, calls onCell (when non-nil) as each distinct cell
// settles with the count settled so far and the plan's size, and renders
// every experiment, in order, from the results it collected. onCell calls
// may overlap when jobs > 1. Rendering never simulates, so a cell that
// several experiments read is attempted once, and a cell whose failure is
// not memoized is neither run nor reported a second time. A cancelled ctx
// stops dispatch and returns its error.
func (r *Runner) Experiments(ctx context.Context, names []string, jobs int, onCell func(res CellResult, done, total int)) ([]Output, error) {
	ds, cells, err := r.plan(names)
	if err != nil {
		return nil, err
	}
	results := r.runAll(ctx, cells, jobs, onCell)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	l := Lookup{Cfg: r.Cfg, Get: func(c Cell) CellResult { return results[c] }}
	out := make([]Output, len(ds))
	for i, d := range ds {
		out[i] = d.Render(l)
	}
	return out, nil
}

// Experiment is Experiments for one name.
func (r *Runner) Experiment(ctx context.Context, name string, jobs int, onCell func(res CellResult, done, total int)) (Output, error) {
	out, err := r.Experiments(ctx, []string{name}, jobs, onCell)
	if err != nil {
		return Output{}, err
	}
	return out[0], nil
}

// ExperimentsMarkdown renders the registry as the generated experiment
// catalogue of EXPERIMENTS.md (one table row per experiment, with the
// one-line example invocations). A docs test keeps the committed file in
// sync with this output.
func ExperimentsMarkdown() string {
	var b strings.Builder
	b.WriteString("| name | reproduces | what it shows | example |\n")
	b.WriteString("|------|------------|---------------|---------|\n")
	for _, d := range registry {
		fmt.Fprintf(&b, "| %s | %s | %s | `%s` |\n", d.Name, d.Ref, d.Doc, d.Example)
	}
	return b.String()
}

// UsageExperiments renders the experiment list for the CLI's -h output,
// sorted lists aside, in registry order.
func UsageExperiments() string {
	var b strings.Builder
	for _, d := range registry {
		fmt.Fprintf(&b, "  %-7s %s: %s\n", d.Name, d.Ref, d.Doc)
	}
	b.WriteString("  all     every paper experiment above, in order (extensions run by name)\n")
	b.WriteString("  cell    one (platform, allocator, workload, cores) cell; see -platform/-alloc/-workload/-cores\n")
	return b.String()
}
