package machine

import (
	"context"
	"math"
	"testing"

	"webmm/internal/cpu"
	"webmm/internal/mem"
	"webmm/internal/memsys"
	"webmm/internal/sim"
)

// streamingDriver writes fresh memory every transaction and never reuses it,
// like the region allocator: all traffic is compulsory misses.
type streamingDriver struct {
	env  *sim.Env
	next mem.Mapping
	off  uint64
	work uint64 // bytes written per transaction
}

func newStreamingDriver(env *sim.Env, work uint64) *streamingDriver {
	return &streamingDriver{env: env, next: env.AS.Map(256*mem.MiB, 0, mem.SmallPages), work: work}
}

func (d *streamingDriver) StepTransaction() bool {
	for i := uint64(0); i < d.work; i += 64 {
		if d.off+64 > d.next.Size {
			d.next = d.env.AS.Map(256*mem.MiB, 0, mem.SmallPages)
			d.off = 0
		}
		d.env.Write(d.next.Base+mem.Addr(d.off), 64, sim.ClassApp)
		d.env.Instr(8, sim.ClassApp)
		d.off += 64
	}
	return true
}

// reusingDriver touches the same small working set every transaction, like
// DDmalloc's LIFO reuse: warm after the first pass.
type reusingDriver struct {
	env  *sim.Env
	base mem.Addr
	work uint64
}

func newReusingDriver(env *sim.Env, work uint64) *reusingDriver {
	m := env.AS.Map(work+mem.KiB, 0, mem.SmallPages)
	return &reusingDriver{env: env, base: m.Base, work: work}
}

func (d *reusingDriver) StepTransaction() bool {
	for i := uint64(0); i < d.work; i += 64 {
		d.env.Write(d.base+mem.Addr(i), 64, sim.ClassApp)
		d.env.Instr(8, sim.ClassApp)
	}
	return true
}

func runDrivers(t *testing.T, p Platform, nCores int, mk func(*sim.Env) Driver, warm, meas int) Result {
	t.Helper()
	m := New(p, nCores, 8*mem.KiB, 128*mem.KiB, 42)
	var drivers []Driver
	for _, s := range m.Streams() {
		drivers = append(drivers, mk(s.Env))
	}
	m.PriceSetup()
	m.Run(drivers, warm, meas)
	return m.Solve()
}

// TestRunContextCancellation: a cancelled context stops the round loop at
// its next checkpoint and surfaces the context's error; an uncancellable
// context runs to completion with a nil error and results identical to Run.
func TestRunContextCancellation(t *testing.T) {
	build := func() (*Machine, []Driver) {
		m := New(Xeon(), 4, 8*mem.KiB, 128*mem.KiB, 42)
		var drivers []Driver
		for _, s := range m.Streams() {
			drivers = append(drivers, newStreamingDriver(s.Env, 64*mem.KiB))
		}
		m.PriceSetup()
		return m, drivers
	}

	m, drivers := build()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.RunContext(ctx, drivers, 2, 3); err != context.Canceled {
		t.Fatalf("RunContext on a cancelled context returned %v, want context.Canceled", err)
	}

	m2, d2 := build()
	if err := m2.RunContext(context.Background(), d2, 2, 3); err != nil {
		t.Fatalf("uncancellable RunContext returned %v", err)
	}
	m3, d3 := build()
	m3.Run(d3, 2, 3)
	r2, r3 := m2.Solve(), m3.Solve()
	if r2.Throughput != r3.Throughput || r2.Totals != r3.Totals {
		t.Fatal("RunContext(Background) differs from Run")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func(env *sim.Env) Driver { return newStreamingDriver(env, 64*mem.KiB) }
	r1 := runDrivers(t, Xeon(), 4, mk, 2, 3)
	r2 := runDrivers(t, Xeon(), 4, mk, 2, 3)
	if r1.Throughput != r2.Throughput || r1.Totals != r2.Totals {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", r1, r2)
	}
}

func TestStreamingGeneratesMoreBusTrafficThanReuse(t *testing.T) {
	work := uint64(256 * mem.KiB)
	stream := runDrivers(t, Xeon(), 2, func(e *sim.Env) Driver { return newStreamingDriver(e, work) }, 2, 4)
	reuse := runDrivers(t, Xeon(), 2, func(e *sim.Env) Driver { return newReusingDriver(e, 16*mem.KiB) }, 2, 4)

	sBus := stream.PerTxn(stream.Totals.BusTxns())
	rBus := reuse.PerTxn(reuse.Totals.BusTxns())
	if sBus < 4*rBus {
		t.Fatalf("streaming bus/txn %.0f not >> reuse %.0f", sBus, rBus)
	}
	if reuse.Totals.L1DMiss*20 > reuse.Totals.L1DAcc {
		t.Fatalf("reusing driver L1D miss rate too high: %d/%d",
			reuse.Totals.L1DMiss, reuse.Totals.L1DAcc)
	}
}

func TestBusUtilizationGrowsWithCores(t *testing.T) {
	mk := func(e *sim.Env) Driver { return newStreamingDriver(e, 256*mem.KiB) }
	u1 := runDrivers(t, Xeon(), 1, mk, 1, 3).BusUtil
	u8 := runDrivers(t, Xeon(), 8, mk, 1, 3).BusUtil
	if u8 <= u1 {
		t.Fatalf("bus utilization did not grow with cores: 1-core %.3f, 8-core %.3f", u1, u8)
	}
	if u8 < 0.3 {
		t.Fatalf("8 streaming cores should load the Xeon bus heavily, got %.3f", u8)
	}
}

func TestMemoryBoundScalesWorseThanCacheFriendly(t *testing.T) {
	mkStream := func(e *sim.Env) Driver { return newStreamingDriver(e, 256*mem.KiB) }
	mkReuse := func(e *sim.Env) Driver { return newReusingDriver(e, 24*mem.KiB) }

	s1 := runDrivers(t, Xeon(), 1, mkStream, 1, 3).Throughput
	s8 := runDrivers(t, Xeon(), 8, mkStream, 1, 3).Throughput
	r1 := runDrivers(t, Xeon(), 1, mkReuse, 1, 3).Throughput
	r8 := runDrivers(t, Xeon(), 8, mkReuse, 1, 3).Throughput

	streamSpeedup := s8 / s1
	reuseSpeedup := r8 / r1
	if streamSpeedup >= reuseSpeedup {
		t.Fatalf("bandwidth-bound speedup %.2fx should trail cache-friendly %.2fx",
			streamSpeedup, reuseSpeedup)
	}
	if reuseSpeedup < 4.5 {
		t.Fatalf("cache-friendly workload speedup %.2fx too low", reuseSpeedup)
	}
}

func TestNiagaraThreadsPerCore(t *testing.T) {
	m := New(Niagara(), 2, 8*mem.KiB, 128*mem.KiB, 1)
	if got := m.NumStreams(); got != 8 {
		t.Fatalf("2 Niagara cores expose %d streams, want 8", got)
	}
	mx := New(Xeon(), 2, 8*mem.KiB, 128*mem.KiB, 1)
	if got := mx.NumStreams(); got != 2 {
		t.Fatalf("2 Xeon cores expose %d streams, want 2", got)
	}
}

func TestStreamsHaveDisjointAddressSpaces(t *testing.T) {
	m := New(Xeon(), 8, 8*mem.KiB, 128*mem.KiB, 1)
	type span struct{ lo, hi mem.Addr }
	var spans []span
	for _, s := range m.Streams() {
		mp := s.Env.AS.Map(1*mem.MiB, 0, mem.SmallPages)
		spans = append(spans, span{mp.Base, mp.End()})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("streams %d and %d overlap: %+v %+v", i, j, spans[i], spans[j])
			}
		}
	}
}

func TestClassAttributionSeparatesAllocFromApp(t *testing.T) {
	p := Xeon()
	m := New(p, 1, 8*mem.KiB, 128*mem.KiB, 7)
	env := m.Streams()[0].Env
	d := driverFunc(func() {
		env.Instr(1000, sim.ClassAlloc)
		env.Instr(3000, sim.ClassApp)
	})
	m.Run([]Driver{d}, 1, 4)
	r := m.Solve()
	if r.ByClass[sim.ClassAlloc].Instr != 4000 {
		t.Fatalf("alloc instr = %d, want 4000", r.ByClass[sim.ClassAlloc].Instr)
	}
	if r.ByClass[sim.ClassApp].Instr != 12000 {
		t.Fatalf("app instr = %d, want 12000", r.ByClass[sim.ClassApp].Instr)
	}
	if r.ByClass[sim.ClassAlloc].Cycles <= 0 || r.ByClass[sim.ClassApp].Cycles <= r.ByClass[sim.ClassAlloc].Cycles {
		t.Fatalf("cycle attribution wrong: %+v", r.ByClass)
	}
	if r.Txns != 4 {
		t.Fatalf("measured %d txns, want 4", r.Txns)
	}
}

type driverFunc func()

func (f driverFunc) StepTransaction() bool { f(); return true }

func TestSolveConverges(t *testing.T) {
	r := runDrivers(t, Xeon(), 8, func(e *sim.Env) Driver { return newStreamingDriver(e, 512*mem.KiB) }, 1, 2)
	if math.IsNaN(r.Throughput) || math.IsInf(r.Throughput, 0) || r.Throughput <= 0 {
		t.Fatalf("throughput = %v", r.Throughput)
	}
	if r.BusMult < 1 || r.BusMult > 1/(1-Xeon().Mem.Link().MaxUtil)+1e-9 {
		t.Fatalf("bus multiplier %v out of range", r.BusMult)
	}
}

func TestWarmupExcludedFromCounters(t *testing.T) {
	p := Xeon()
	mk := func() (*Machine, Result) {
		m := New(p, 1, 8*mem.KiB, 128*mem.KiB, 5)
		d := newReusingDriver(m.Streams()[0].Env, 32*mem.KiB)
		m.Run([]Driver{d}, 5, 2)
		return m, m.Solve()
	}
	_, r := mk()
	// After 5 warmup passes over a 32 KiB set, measured misses should be
	// nearly zero (the set fits in L1D).
	if r.Totals.L1DMiss*50 > r.Totals.L1DAcc {
		t.Fatalf("warmup leaked into measurement: %d misses / %d accesses",
			r.Totals.L1DMiss, r.Totals.L1DAcc)
	}
}

// TestSamplerDeltasAndNoPerturbation checks the telemetry hook: round
// samples arrive once per round, their deltas sum to the measured totals,
// and attaching a sampler leaves the solved result bit-identical.
func TestSamplerDeltasAndNoPerturbation(t *testing.T) {
	run := func(sampler func(RoundSample)) (Result, int) {
		m := New(Xeon(), 2, 8*mem.KiB, 128*mem.KiB, 42)
		m.Sampler = sampler
		var drivers []Driver
		for _, s := range m.Streams() {
			drivers = append(drivers, newStreamingDriver(s.Env, 64*mem.KiB))
		}
		m.PriceSetup()
		m.Run(drivers, 2, 3)
		return m.Solve(), m.sampleRound
	}

	base, _ := run(nil)

	var samples []RoundSample
	sampled, rounds := run(func(s RoundSample) { samples = append(samples, s) })

	if sampled.Throughput != base.Throughput || sampled.Totals != base.Totals {
		t.Fatalf("sampler perturbed the simulation:\n%+v\n%+v", sampled, base)
	}
	if len(samples) != 5 || rounds != 5 {
		t.Fatalf("got %d samples over %d rounds, want 5 (2 warmup + 3 measured)", len(samples), rounds)
	}
	var sum [sim.NumClasses]cpu.Counters
	for i, s := range samples {
		if s.Round != i {
			t.Fatalf("samples[%d].Round = %d", i, s.Round)
		}
		wantMeasuring := i >= 2
		if s.Measuring != wantMeasuring {
			t.Fatalf("samples[%d].Measuring = %v", i, s.Measuring)
		}
		if !wantMeasuring && s.ByClass[sim.ClassApp].Instr != 0 {
			t.Fatalf("warmup sample %d carries measured instructions", i)
		}
		for cls := 0; cls < sim.NumClasses; cls++ {
			sum[cls].Add(s.ByClass[cls])
		}
	}
	for cls := 0; cls < sim.NumClasses; cls++ {
		if sum[cls].Instr != sampled.ByClass[cls].Instr {
			t.Fatalf("class %d sample deltas sum to %d instr, Solve says %d",
				cls, sum[cls].Instr, sampled.ByClass[cls].Instr)
		}
	}
	var total cpu.Counters
	for cls := 0; cls < sim.NumClasses; cls++ {
		total.Add(sum[cls])
	}
	if total != sampled.Totals {
		t.Fatalf("sample deltas do not sum to totals:\n%+v\n%+v", total, sampled.Totals)
	}
}

// countingModel is a platform's memory system with a Recorder that counts
// recorded transactions by kind.
type countingModel struct {
	memsys.Model
	rec *countingRecorder
}

func (m countingModel) Recorder() memsys.Recorder { return m.rec }

type countingRecorder struct{ n [memsys.Prefetch + 1]uint64 }

func (r *countingRecorder) Record(line uint64, core int, kind memsys.Kind) { r.n[kind]++ }

// slidingDriver writes a 24 KiB window twice per transaction, in alternating
// one- and two-line events, then slides it to fresh memory. Next to a
// streaming core on the same L2, the window stays dirty in L1 while the
// stream evicts its L2 copies, so when the next window pushes it out of L1
// its writeback misses the L2 and evicts a dirty line there.
type slidingDriver struct {
	env  *sim.Env
	base mem.Addr
}

const slideWindow = 24 * mem.KiB

func (d *slidingDriver) StepTransaction() bool {
	for pass := 0; pass < 2; pass++ {
		for off := mem.Addr(0); off < slideWindow; off += 192 {
			d.env.Write(d.base+off, 64, sim.ClassApp)
			d.env.Write(d.base+off+64, 128, sim.ClassApp)
		}
	}
	d.base += slideWindow
	return true
}

// TestRecorderSeesMeasuredBusTraffic pins the contract a DRAM model relies
// on: measured and unmeasured rounds share one pricing path, and only
// measured rounds record, one Record per billed bus transaction of the
// matching kind. The Xeon's prefetcher makes all three kinds appear, and
// the sliding core's writebacks reach the bus from both the one-line and
// the multi-line pricing paths, in warmup rounds as well as measured ones.
func TestRecorderSeesMeasuredBusTraffic(t *testing.T) {
	p := Xeon()
	rec := &countingRecorder{}
	p.Mem = countingModel{Model: p.Mem, rec: rec}
	m := New(p, 2, 8*mem.KiB, 128*mem.KiB, 42)
	envs := []*sim.Env{m.Streams()[0].Env, m.Streams()[1].Env}
	drivers := []Driver{
		&slidingDriver{env: envs[0], base: envs[0].AS.Map(64*mem.MiB, 0, mem.SmallPages).Base},
		newStreamingDriver(envs[1], 6*mem.MiB),
	}
	m.PriceSetup()
	m.Run(drivers, 3, 0)
	if rec.n != [len(rec.n)]uint64{} {
		t.Fatalf("unmeasured pricing recorded %v (read, writeback, prefetch)", rec.n)
	}
	m.Run(drivers, 1, 2)
	tot := m.Solve().Totals
	want := [len(rec.n)]uint64{memsys.Read: tot.BusRead, memsys.Writeback: tot.BusWrite, memsys.Prefetch: tot.BusPf}
	if rec.n != want {
		t.Fatalf("recorded %v (read, writeback, prefetch), measured bus traffic %v", rec.n, want)
	}
	for kind, n := range want {
		if n == 0 {
			t.Fatalf("no measured traffic of kind %d: the test does not exercise it", kind)
		}
	}
}

func TestPlatformByName(t *testing.T) {
	if _, err := PlatformByName("xeon"); err != nil {
		t.Fatal(err)
	}
	if _, err := PlatformByName("niagara"); err != nil {
		t.Fatal(err)
	}
	if _, err := PlatformByName("power6"); err == nil {
		t.Fatal("unknown platform accepted")
	}
}
