package memsys

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func testLink() Link {
	return Link{BytesPerCycle: 4.3, BytesPerTxn: 64, MaxUtil: 0.93}
}

func TestUtilizationScalesWithTraffic(t *testing.T) {
	l := testLink()
	u1 := l.Utilization(1000, 1e6)
	u2 := l.Utilization(2000, 1e6)
	if math.Abs(u2-2*u1) > 1e-12 {
		t.Fatalf("utilization not linear in traffic: %g vs %g", u1, u2)
	}
	u3 := l.Utilization(1000, 2e6)
	if math.Abs(u3-u1/2) > 1e-12 {
		t.Fatalf("utilization not inverse in time: %g vs %g", u1, u3)
	}
}

func TestLatencyMultiplierMonotone(t *testing.T) {
	l := testLink()
	prev := 0.0
	for u := 0.0; u <= 1.5; u += 0.01 {
		mult := l.LatencyMultiplier(u)
		if mult < prev {
			t.Fatalf("multiplier decreased at u=%.2f: %g < %g", u, mult, prev)
		}
		prev = mult
	}
}

func TestLatencyMultiplierBounds(t *testing.T) {
	l := testLink()
	if got := l.LatencyMultiplier(0); got != 1 {
		t.Errorf("idle link multiplier = %g, want 1", got)
	}
	capped := l.LatencyMultiplier(5.0)
	want := 1 / (1 - l.MaxUtil)
	if math.Abs(capped-want) > 1e-9 {
		t.Errorf("saturated multiplier = %g, want %g", capped, want)
	}
	if got := l.LatencyMultiplier(-1); got != 1 {
		t.Errorf("negative utilization multiplier = %g, want 1", got)
	}
}

func TestZeroWallClockSaturates(t *testing.T) {
	l := testLink()
	if u := l.Utilization(100, 0); u != l.MaxUtil {
		t.Errorf("zero-time utilization = %g, want MaxUtil", u)
	}
}

func TestMultiplierAlwaysAtLeastOneProperty(t *testing.T) {
	l := testLink()
	f := func(txns uint32, cycles uint32) bool {
		u := l.Utilization(uint64(txns), float64(cycles))
		return l.LatencyMultiplier(u) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The Bus adapter must be arithmetically indistinguishable from consulting
// the link directly — that is the default path's bit-identical contract.
func TestBusAdapterMatchesLink(t *testing.T) {
	link := testLink()
	b := NewBus(link)
	for _, txns := range []uint64{0, 1, 1000, 123456789} {
		for _, wall := range []float64{0, 1, 1e6, 3.7e9} {
			if got, want := b.Utilization(txns, wall), link.Utilization(txns, wall); got != want {
				t.Fatalf("Utilization(%d, %v) = %v, want %v", txns, wall, got, want)
			}
		}
	}
	for _, u := range []float64{-1, 0, 0.5, 0.93, 2} {
		if got, want := b.LatencyMultiplier(u), link.LatencyMultiplier(u); got != want {
			t.Fatalf("LatencyMultiplier(%v) = %v, want %v", u, got, want)
		}
	}
	if b.Recorder() != nil {
		t.Error("bus recorder should be nil (machine skips recording)")
	}
	if b.Stats() != nil {
		t.Error("bus stats should be nil (keeps result JSON unchanged)")
	}
	if b.CoreFactor(3) != 1 {
		t.Error("bus core factor must be exactly 1")
	}
	if b.Name() != "bus" {
		t.Errorf("Name() = %q", b.Name())
	}
	if b.Link() != link {
		t.Errorf("Link() = %+v", b.Link())
	}
}

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	want := []PolicyName{PolicyFRFCFS, PolicyATLAS, PolicyTCM, PolicyBLISS}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("PolicyNames() = %v, want %v", names, want)
	}
	for _, d := range Policies() {
		if d.Doc == "" || d.Ref == "" {
			t.Errorf("policy %s missing doc or ref", d.Name)
		}
		got, err := PolicyByName(d.Name)
		if err != nil || got.Name != d.Name {
			t.Errorf("PolicyByName(%q): %v", d.Name, err)
		}
	}
	_, err := PolicyByName("fifo")
	if err == nil {
		t.Fatal("PolicyByName(fifo) succeeded")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), string(n)) {
			t.Errorf("unknown-policy error %q does not name candidate %s", err, n)
		}
	}
	if UsagePolicies() == "" || PoliciesMarkdown() == "" {
		t.Error("empty generated policy docs")
	}
}

// lcg is a tiny deterministic generator for synthetic miss streams.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 16
}

func feed(t *testing.T, d *DRAM, n int, cores int) {
	t.Helper()
	g := lcg(42)
	for i := 0; i < n; i++ {
		// Mix sequential sweeps (row locality) with random lines.
		var line uint64
		if i%3 != 0 {
			line = uint64(i) * 7 / 3
		} else {
			line = g.next() % (1 << 20)
		}
		kind := Kind(i % 3)
		d.Record(line, i%cores, kind)
	}
}

func TestDRAMDeterministic(t *testing.T) {
	for _, p := range PolicyNames() {
		a, err := NewDRAM(DRAMConfig{Policy: p}, testLink(), 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewDRAM(DRAMConfig{Policy: p}, testLink(), 4)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, a, 5000, 4)
		feed(t, b, 5000, 4)
		if !reflect.DeepEqual(a.Stats(), b.Stats()) {
			t.Errorf("%s: same stream produced different stats:\n%+v\n%+v", p, a.Stats(), b.Stats())
		}
	}
}

func TestDRAMAccounting(t *testing.T) {
	d, err := NewDRAM(DRAMConfig{}, testLink(), 4)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, 5000, 4)
	s := d.Stats()
	if s.Total() != 5000 {
		t.Fatalf("total %d, want 5000", s.Total())
	}
	if s.RowHits+s.RowClosed+s.RowConflicts != 5000 {
		t.Fatalf("row outcomes %d+%d+%d don't sum to 5000", s.RowHits, s.RowClosed, s.RowConflicts)
	}
	if s.Reads == 0 || s.Writebacks == 0 || s.Prefetches == 0 {
		t.Errorf("kind split incomplete: %+v", s)
	}
	if s.MaxQueueDepth < 1 || s.AvgQueueDepth <= 0 {
		t.Errorf("queue stats missing: max %d avg %v", s.MaxQueueDepth, s.AvgQueueDepth)
	}
	if s.RowFactor <= 0 {
		t.Errorf("row factor %v", s.RowFactor)
	}
}

// A purely sequential sweep should be dominated by open-row hits under
// FR-FCFS; ping-ponging between two rows of the same bank with no
// reordering freedom (window 1) must conflict on every access after the
// first two.
func TestDRAMRowBufferBehavior(t *testing.T) {
	d, err := NewDRAM(DRAMConfig{}, testLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for line := uint64(0); line < 4096; line++ {
		d.Record(line, 0, Read)
	}
	if r := d.Stats().RowHitRate(); r < 0.8 {
		t.Errorf("sequential sweep row-hit rate %v, want > 0.8", r)
	}

	// Same channel (even lines), same bank (rowGlobal ≡ 0 mod banks),
	// different rows.
	fc, err := NewDRAM(DRAMConfig{Window: 1}, testLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	strideLines := sameBankStride(DRAMConfig{})
	for i := 0; i < 100; i++ {
		fc.Record(uint64(i%2)*strideLines, 0, Read)
	}
	s := fc.Stats()
	if s.RowConflicts != 99 || s.RowClosed != 1 {
		t.Errorf("ping-pong: conflicts %d closed %d hits %d, want 99/1/0", s.RowConflicts, s.RowClosed, s.RowHits)
	}
}

// Per-core factors must have request-weighted mean 1 (so redistributing
// latency between cores never changes the aggregate bandwidth story) and
// idle cores must get exactly 1.
func TestDRAMCoreFactorsNormalized(t *testing.T) {
	for _, p := range PolicyNames() {
		d, err := NewDRAM(DRAMConfig{Policy: p}, testLink(), 8)
		if err != nil {
			t.Fatal(err)
		}
		// Cores 0..3 active with skewed demand; cores 4..7 idle.
		g := lcg(7)
		for i := 0; i < 8000; i++ {
			core := 0
			switch {
			case i%8 < 4:
				core = 0 // heavy
			case i%8 < 6:
				core = 1
			case i%8 == 6:
				core = 2
			default:
				core = 3 // light
			}
			d.Record(g.next()%(1<<18), core, Read)
		}
		s := d.Stats()
		var weighted float64
		var reqs uint64
		for c := 0; c < 8; c++ {
			f := d.CoreFactor(c)
			if f <= 0 {
				t.Errorf("%s: core %d factor %v", p, c, f)
			}
			if c >= 4 && f != 1 {
				t.Errorf("%s: idle core %d factor %v, want exactly 1", p, c, f)
			}
			weighted += f * float64(d.coreReqs[c])
			reqs += d.coreReqs[c]
		}
		mean := weighted / float64(reqs)
		if mean < 0.999999 || mean > 1.000001 {
			t.Errorf("%s: request-weighted mean factor %v, want 1", p, mean)
		}
		if len(s.CoreFactors) != 8 {
			t.Errorf("%s: stats carry %d core factors, want 8", p, len(s.CoreFactors))
		}
	}
}

// With no recorded traffic the DRAM model must collapse to the bus model:
// multiplier identical, factors 1 — a cell whose measured rounds generate
// no misses prices the same either way.
func TestDRAMNoTrafficMatchesBus(t *testing.T) {
	link := testLink()
	d, err := NewDRAM(DRAMConfig{}, link, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.LatencyMultiplier(0.5), link.LatencyMultiplier(0.5); got != want {
		t.Errorf("multiplier %v, want %v", got, want)
	}
	if d.CoreFactor(0) != 1 || d.CoreFactor(1) != 1 {
		t.Error("idle core factors must be 1")
	}
	if s := d.Stats(); s.Total() != 0 || s.RowFactor != 1 {
		t.Errorf("stats %+v", s)
	}
}

// NewDRAM must turn every bad configuration into an error: the geometry
// feeds an allocation and a shift-and-mask address map, the window is a
// 64-bit slot mask, and the service factors order ATLAS's attained service.
func TestNewDRAMValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   DRAMConfig
		cores int
		err   string // substring of the error; "" = accepted
	}{
		{"defaults", DRAMConfig{}, 1, ""},
		{"FCFS window", DRAMConfig{Window: 1}, 8, ""},
		{"widest window", DRAMConfig{Window: 64}, 8, ""},
		{"one bank", DRAMConfig{Channels: 1, RanksPerChannel: 1, BanksPerRank: 1, RowBytes: 64}, 1, ""},
		{"unknown policy", DRAMConfig{Policy: "lifo"}, 1, "unknown scheduling policy"},
		{"row not a line multiple", DRAMConfig{RowBytes: 100}, 1, "row size"},
		{"row below one line", DRAMConfig{RowBytes: 32}, 1, "row size"},
		{"row of three lines", DRAMConfig{RowBytes: 3 * 64}, 1, "row size"},
		{"zero cores", DRAMConfig{}, 0, "nCores"},
		{"negative channels", DRAMConfig{Channels: -1}, 1, "geometry"},
		{"negative ranks", DRAMConfig{RanksPerChannel: -2}, 1, "geometry"},
		{"negative banks", DRAMConfig{BanksPerRank: -8}, 1, "geometry"},
		{"three channels", DRAMConfig{Channels: 3}, 1, "geometry"},
		{"six banks", DRAMConfig{BanksPerRank: 6}, 1, "geometry"},
		{"bank count overflow", DRAMConfig{Channels: 1 << 30, RanksPerChannel: 1 << 30, BanksPerRank: 1 << 30}, 1, "geometry"},
		{"negative window", DRAMConfig{Window: -3}, 1, "window"},
		{"window past the mask", DRAMConfig{Window: 65}, 1, "window"},
		{"negative conflict factor", DRAMConfig{ConflictFactor: -1.4}, 1, "service factors"},
		{"NaN hit factor", DRAMConfig{HitFactor: math.NaN()}, 1, "service factors"},
		{"infinite closed factor", DRAMConfig{ClosedFactor: math.Inf(1)}, 1, "service factors"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDRAM(tc.cfg, testLink(), tc.cores)
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.err == "":
				d.Record(12345, tc.cores-1, Read) // usable
			case err == nil:
				t.Fatalf("accepted, want an error containing %q", tc.err)
			case !strings.Contains(err.Error(), tc.err):
				t.Fatalf("error %q does not mention %q", err, tc.err)
			}
		})
	}
}

// ATLAS must favour the core with the least attained service: the light
// core's factor cannot exceed the heavy core's.
func TestATLASFavoursLightCore(t *testing.T) {
	d, err := NewDRAM(DRAMConfig{Policy: PolicyATLAS}, testLink(), 2)
	if err != nil {
		t.Fatal(err)
	}
	g := lcg(3)
	for i := 0; i < 6000; i++ {
		core := 0
		if i%8 == 0 {
			core = 1 // light core: 1/8 of the traffic
		}
		d.Record(g.next()%(1<<16), core, Read)
	}
	heavy, light := d.CoreFactor(0), d.CoreFactor(1)
	if light > heavy {
		t.Errorf("ATLAS light-core factor %v > heavy-core %v", light, heavy)
	}
}
