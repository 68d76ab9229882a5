package experiments

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"webmm/internal/cpu"
	"webmm/internal/machine"
	"webmm/internal/memsys"
)

// TestPlansMatchFile pins every registry experiment's cell plan to
// testdata/plans.txt: one "<experiment> <cell key>" line per distinct cell,
// in plan order, at parCfg's scale. Plans are compared as sets, so a
// change that only reorders a plan passes; one that adds or drops a cell
// fails until the file is regenerated with -update. The four plans
// perfbench runs must also keep the file's order, so its workloads run the
// same cells in the same sequence.
func TestPlansMatchFile(t *testing.T) {
	path := filepath.Join("testdata", "plans.txt")
	r := NewRunner(parCfg())
	got := map[string][]string{}
	var b strings.Builder
	for _, name := range ExperimentNames() {
		for _, c := range r.CellsFor(name) {
			got[name] = append(got[name], c.Key())
			fmt.Fprintf(&b, "%s %s\n", name, c.Key())
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readPlans(t, path)
	for _, name := range ExperimentNames() {
		if g, w := sortedCopy(got[name]), sortedCopy(want[name]); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: plan %v, want %v", name, g, w)
		}
	}
	for name, cells := range map[string][]Cell{
		"fig5": r.Fig5Cells(), "fig10": r.Fig10Cells(), "fig12": r.Fig12Cells(), "memsched": r.MemSchedCells(),
	} {
		var keys []string
		for _, c := range cells {
			keys = append(keys, c.Key())
		}
		if !reflect.DeepEqual(keys, want[name]) {
			t.Errorf("%s: plan sequence %v, want %v", name, keys, want[name])
		}
	}
}

// readPlans parses testdata/plans.txt into each experiment's keys, in file
// order.
func readPlans(t *testing.T, path string) map[string][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing plan file (regenerate with -update): %v", err)
	}
	defer f.Close()
	out := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, key, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("bad plan line %q", sc.Text())
		}
		out[name] = append(out[name], key)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// direct is the lookup that simulates on demand through the runner's Run.
func direct(r *Runner) Lookup { return Lookup{Cfg: r.Cfg, Get: r.Run} }

// synthetic is a successful result with every quantity a figure reads
// nonzero, so each render takes its data branches.
func synthetic(c Cell) CellResult {
	res := CellResult{Cell: c, Footprint: 1 << 20, TxnsPerStream: 10}
	res.Calls.Mallocs, res.Calls.Frees, res.Calls.Reallocs = 100, 90, 5
	res.Calls.BytesRequested, res.Calls.BytesAllocated = 6400, 6400
	res.Res.Txns, res.Res.Throughput = 100, 1000
	for cls := range res.Res.ByClass {
		res.Res.ByClass[cls] = machine.ClassTime{Cycles: 1e6, Instr: 1e6}
	}
	res.Res.Totals = cpu.Counters{Instr: 1e6, L1IMiss: 10, L1DMiss: 10, TLBMiss: 10, L2MissRd: 10, L2MissIF: 10, BusRead: 10}
	if c.MemSched != "" {
		res.Res.Mem = &memsys.Stats{Policy: c.MemSched, RowHits: 3, RowClosed: 1}
	}
	return res
}

// TestRenderReadsDoNotDependOnResults is the invariant planning rests on: an
// experiment's plan is the cells its render reads (CellsFor), so every
// render must read the same cell sequence whatever the results say. It
// runs every registry experiment's render twice, once with every lookup
// failed and once with every lookup a synthetic success, and simulates
// nothing.
func TestRenderReadsDoNotDependOnResults(t *testing.T) {
	cfg := parCfg()
	for _, d := range Experiments() {
		reads := func(answer func(Cell) CellResult) []Cell {
			var seq []Cell
			d.Render(Lookup{Cfg: cfg, Get: func(c Cell) CellResult {
				seq = append(seq, c)
				return answer(c)
			}})
			return seq
		}
		failed := reads(func(c Cell) CellResult { return CellResult{Cell: c, Failed: true} })
		if ok := reads(synthetic); !reflect.DeepEqual(failed, ok) {
			t.Errorf("%s reads %d cells when they fail and %d when they succeed, or in another order",
				d.Name, len(failed), len(ok))
		}
	}
}
