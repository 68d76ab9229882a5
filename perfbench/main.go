// Command perfbench is webmm's end-to-end and per-layer benchmark. It runs
// one workload through webmm's own entry points — experiments.Runner.RunAll
// for the simulation plans, in-process server.Server instances over
// loopback HTTP for the fleet — checks every result, and prints one JSON
// line of metrics as the last line of standard output:
//
//	perfbench --workload php_bus --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics with every timer off; --trace 1
// is a separate run that times the calls into each layer from this
// package's own wrappers and reports the per-layer metrics. README.md maps
// the workloads, the metrics, and which layer should move which number.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"webmm/internal/experiments"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct{ Name, Unit string }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: whether every output checked out, how many
// operations (cells or requests) were attempted and failed, and the
// metrics.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	values map[string]float64 // what the run measured, by metric name
	notes  []string           // first few failure descriptions, for standard error
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// check counts one attempted operation, and a failure unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if ok {
		return
	}
	r.Failed++
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// options are one run's settings.
type options struct {
	seed   uint64
	budget time.Duration // how long the measured phases run
	trace  bool
	dir    string // per-run scratch directory, removed on exit (the fleet's disk cache)
}

// defaultSeed is the seed whose cell results are pinned in digests.json.
const defaultSeed = 1

// simSeed maps the benchmark seed onto the simulator seed: seed 0 is the
// repository's default configuration seed.
func simSeed(seed uint64) uint64 { return experiments.DefaultConfig().Seed + seed }

func main() {
	name := flag.String("workload", "php_bus", "workload: php_bus, dram_sched, ruby_restart or serve_fleet")
	seed := flag.Uint64("seed", defaultSeed, "seed of the simulator and of the request script")
	seconds := flag.Int("seconds", 25, "how long the measured phases run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, timers off; 1: per-layer metrics")
	record := flag.Bool("record-digests", false, "print the workload's cell digests at --seed instead of measuring")
	flag.Parse()

	run := runFleet
	w, isSim := simWorkloads[*name]
	if isSim {
		run = func(o options) (*report, error) { return runSim(w, o) }
	}
	if (!isSim && *name != "serve_fleet") || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	err := loadDeclared("BENCHMARK.json")
	if err == nil {
		err = os.MkdirAll(".bench_build", 0o755)
	}
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := options{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: dir}
	if *record {
		err = recordDigests(*name, o)
	} else {
		err = measure(*name, run, o)
	}
	removeAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func measure(name string, run func(options) (*report, error), o options) error {
	facts, err := json.Marshal(map[string]any{"host": hostFacts(name, o)})
	if err != nil {
		return err
	}
	fmt.Println(string(facts))
	rep, err := run(o)
	if err != nil {
		return err
	}
	want, kind := declared.EndToEnd, "end_to_end"
	if o.trace {
		want, kind = declared.PerLayer, "per_layer"
	}
	rep.Metrics = map[string]metric{}
	for _, m := range want {
		v, ok := rep.values[m.Name]
		if !ok && !o.trace {
			return fmt.Errorf("the run did not measure %s", m.Name)
		}
		// A layer the workload does not exercise reads 0.
		rep.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		delete(rep.values, m.Name)
	}
	for n := range rep.values {
		return fmt.Errorf("the run measured %s, which is not among BENCHMARK.json's %s metrics", n, kind)
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostFacts are printed with every run so each number can be read against
// the machine and code that produced it.
func hostFacts(name string, o options) map[string]any {
	// The commit of the checkout being measured: git looks no higher than
	// the working directory, so a checkout that is not a repository of its
	// own reads "unknown" rather than the commit of one around it.
	commit := "unknown"
	git := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12")
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":   name,
		"seed":       o.seed,
		"sim_seed":   simSeed(o.seed),
		"trace":      o.trace,
		"seconds":    o.budget.Seconds(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"sim_jobs":   simJobs(name, o.trace),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// simJobs is how many cells one process simulates at once: RunAll's job
// count for the plans — nproc, as a default webmm -exp run uses, or 1 in a
// traced run, whose layers are timed cell by cell — and each fleet
// worker's job count.
func simJobs(name string, trace bool) int {
	switch {
	case name == "serve_fleet":
		return workerJobs
	case trace:
		return 1
	}
	return runtime.NumCPU()
}

// digest identifies a cell result by its JSON encoding — the bytes the cell
// cache and the server's result events carry.
func digest(res experiments.CellResult) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// more reports whether a time-boxed loop that has made n passes since
// start starts another: always below min passes, then while one more
// average pass still fits the budget.
func more(start time.Time, n, min int, budget time.Duration) bool {
	if n < min {
		return true
	}
	el := time.Since(start)
	return el+el/time.Duration(n) <= budget
}

// removeAll deletes a scratch directory, reporting a failure on standard
// error only: a leftover directory does not change any result.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// cellTimes collects each cell's latency (ms) over a run's passes, by cell
// key. Its quantiles are taken over the cells' medians: a plan mixes cells
// of very different cost, and pooling every sample would put a percentile
// on the noisy edge between two groups of cells.
type cellTimes map[string][]float64

// add appends one pass's latency of each cell.
func (ct cellTimes) add(pass map[string]float64) {
	for k, v := range pass {
		ct[k] = append(ct[k], v)
	}
}

func (ct cellTimes) quantile(q float64) float64 {
	meds := make([]float64, 0, len(ct))
	for _, xs := range ct {
		meds = append(meds, median(xs))
	}
	return quantile(meds, q)
}

// timed runs f and returns its wall time in seconds.
func timed(f func()) float64 {
	t := time.Now()
	f()
	return time.Since(t).Seconds()
}

// declared holds the metrics BENCHMARK.json declares: the end-to-end ones a
// --trace 0 run reports and the per-layer ones a --trace 1 run reports. It
// is read once at start-up.
var declared struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadDeclared reads the metric names and units from BENCHMARK.json.
func loadDeclared(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &declared); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
