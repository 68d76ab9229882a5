package experiments

import (
	"math"
	"testing"
)

// rubyTestRunner is coarse enough for quick shape checks; Ruby cells
// internally lengthen their horizons so processes age and restart.
func rubyTestRunner() *Runner {
	return NewRunner(Config{Scale: 128, Warmup: 1, Measure: 2, Seed: 20090615})
}

func TestFig10OrderingMatchesPaper(t *testing.T) {
	// Paper §4.4 / Figure 10: DDmalloc > TCmalloc > Hoard >= glibc.
	r := rubyTestRunner()
	entries := Fig10(direct(r))
	byName := map[string]float64{}
	for _, e := range entries {
		byName[e.Alloc] = e.Throughput
	}
	if byName["ddmalloc"] <= byName["tcmalloc"] {
		t.Errorf("DDmalloc %.1f <= TCmalloc %.1f", byName["ddmalloc"], byName["tcmalloc"])
	}
	if byName["ddmalloc"] <= byName["glibc"] {
		t.Errorf("DDmalloc %.1f <= glibc %.1f", byName["ddmalloc"], byName["glibc"])
	}
	if byName["tcmalloc"] <= byName["glibc"] {
		t.Errorf("TCmalloc %.1f <= glibc %.1f", byName["tcmalloc"], byName["glibc"])
	}
	// The paper's margins: DD +13.6% over glibc, +5.3% over TCmalloc.
	// Shape check: the DD advantage over glibc must be a clear win but
	// not absurd.
	rel := byName["ddmalloc"]/byName["glibc"] - 1
	if rel < 0.02 || rel > 0.60 {
		t.Errorf("DD vs glibc = %+.1f%%, outside plausible band", rel*100)
	}
}

func TestFig11DDSpendsLeastOnMemoryManagement(t *testing.T) {
	r := rubyTestRunner()
	entries := Fig11(direct(r))
	mm := map[string]float64{}
	for _, e := range entries {
		mm[e.Alloc] = e.MMPct
	}
	// Paper Figure 11: "DDmalloc obviously spent the least time on
	// memory operations among the tested allocators."
	for _, other := range []string{"glibc", "hoard", "tcmalloc"} {
		if mm["ddmalloc"] >= mm[other] {
			t.Errorf("DDmalloc mm share %.1f%% >= %s %.1f%%", mm["ddmalloc"], other, mm[other])
		}
	}
	if mm["glibc"] <= 0 {
		t.Fatalf("glibc mm share %.1f%%; breakdown missing", mm["glibc"])
	}
}

func TestFig12RestartMattersMoreForDD(t *testing.T) {
	if testing.Short() {
		t.Skip("restart sweep needs long process horizons")
	}
	r := rubyTestRunner()
	entries := Fig12(direct(r))
	best := map[string]float64{}
	noRestart := map[string]float64{}
	for _, e := range entries {
		if e.Period == 0 {
			noRestart[e.Alloc] = e.Throughput
		}
		if e.Throughput > best[e.Alloc] {
			best[e.Alloc] = e.Throughput
		}
	}
	// Paper Figure 12's robust shape: periodic restarts pay off against
	// heap aging (some period beats never restarting), and the boot cost
	// keeps very frequent restarts from dominating. (The paper's finer
	// claim — DD gaining more than glibc — holds at fine scale only;
	// see EXPERIMENTS.md.)
	for _, alloc := range []string{"glibc", "ddmalloc"} {
		gain := best[alloc]/noRestart[alloc] - 1
		if gain < 0 {
			t.Errorf("%s: best restart period loses to no-restart (%+.2f%%)", alloc, gain*100)
		}
	}
	var at20, atBest float64
	for _, e := range entries {
		if e.Alloc == "ddmalloc" && e.Period == 20 {
			at20 = e.Throughput
		}
	}
	atBest = best["ddmalloc"]
	if at20 > atBest {
		t.Errorf("DD restart@20 (%.1f) beats every longer period (%.1f); boot cost missing", at20, atBest)
	}
}

func TestRubyRestartPeriodScaling(t *testing.T) {
	r := NewRunner(Config{Scale: 8, Warmup: 1, Measure: 1, Seed: 1})
	if got := r.Cfg.rubyRestart(500); got != 500 {
		t.Errorf("scale 8: rubyRestart(500) = %d, want 500 (paper scale)", got)
	}
	r64 := NewRunner(Config{Scale: 64, Warmup: 1, Measure: 1, Seed: 1})
	if got := r64.Cfg.rubyRestart(500); got != 62 {
		t.Errorf("scale 64: rubyRestart(500) = %d, want 62", got)
	}
	if got := r64.Cfg.rubyRestart(0); got != 0 {
		t.Errorf("rubyRestart(0) = %d, want 0 (no restarts)", got)
	}
	if got := r64.Cfg.rubyRestart(20); got < 2 {
		t.Errorf("rubyRestart(20) = %d, want clamped >= 2", got)
	}
	// A negative period stays negative for Cell.Validate to reject, and a
	// huge one saturates (no restart within the run) instead of wrapping
	// to the minimum period 2.
	if got := r64.Cfg.rubyRestart(-1); got != -1 {
		t.Errorf("rubyRestart(-1) = %d, want -1", got)
	}
	if got, want := r64.Cfg.rubyRestart(2305843009213693952), math.MaxInt/8*8/64; got != want {
		t.Errorf("rubyRestart(2^61) = %d, want %d", got, want)
	}
	// Every period the figures use maps as it did before saturation.
	for exp := 0; exp <= 10; exp++ {
		scale := 1 << exp
		r := NewRunner(Config{Scale: scale, Measure: 1})
		for _, period := range append(Fig12Periods, rubyRestartEvery) {
			want := 0
			if period > 0 {
				want = max(period*8/scale, 2)
			}
			if got := r.Cfg.rubyRestart(period); got != want {
				t.Errorf("scale %d: rubyRestart(%d) = %d, want %d", scale, period, got, want)
			}
		}
	}
}
