package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webmm/internal/budget"
	"webmm/internal/experiments"
	"webmm/internal/mem"
)

// newWorker builds one in-process worker instance: a real Server sharing
// the fleet's remote cache, fronted by a middleware that can inject a
// per-worker dispatch delay (the "slow shard"). The delay aborts early when
// the dispatch is cancelled, exactly like a real shard noticing the
// coordinator hung up.
func newWorker(t *testing.T, cacheURL string, delay *atomic.Int64) (*Server, *httptest.Server) {
	t.Helper()
	w, err := New(Config{Jobs: 4, QueueDepth: 16, Sim: testSim(),
		Cache: experiments.NewHTTPBackend(cacheURL)})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if d := time.Duration(delay.Load()); d > 0 && r.URL.Path == "/run" {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				return
			}
		}
		h.ServeHTTP(rw, r)
	}))
	return w, ts
}

// scrapeMetric reads one un-labelled counter from a /metrics exposition.
func scrapeMetric(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			var v float64
			fmt.Sscanf(fields[1], "%g", &v)
			return v
		}
	}
	return 0
}

// TestFleetMatchesSingleProcess is the fleet's end-to-end contract: a
// coordinator fanning fig1 across two in-process workers (sharing one
// remote cache) must produce cell results and rendered tables DeepEqual to
// a direct single-process Runner — including while one shard is
// artificially slowed so hedging decides cells — and the whole fleet must
// drain back to its goroutine baseline.
func TestFleetMatchesSingleProcess(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// One shared remote cache for the whole fleet.
	cacheMux := http.NewServeMux()
	cacheMux.Handle("/cache/", experiments.CacheHandler(experiments.NewMemBackend()))
	cacheSrv := httptest.NewServer(cacheMux)

	var delays [2]atomic.Int64
	w0, ts0 := newWorker(t, cacheSrv.URL, &delays[0])
	w1, ts1 := newWorker(t, cacheSrv.URL, &delays[1])

	coord, err := New(Config{Jobs: 8, QueueDepth: 32, Sim: testSim(),
		Workers:    []string{ts0.URL, ts1.URL},
		HedgeAfter: 2,
		Cache:      experiments.NewHTTPBackend(cacheSrv.URL)})
	if err != nil {
		t.Fatal(err)
	}
	tsc := httptest.NewServer(coord.Handler())

	// The single-process truth: same config, no cache, no fleet.
	direct := experiments.NewRunner(testSim())
	desc, err := experiments.ExperimentByName("fig1")
	if err != nil {
		t.Fatal(err)
	}
	cells := desc.Cells(direct)
	if len(cells) < 2 {
		t.Fatalf("fig1 planned %d cells, want several", len(cells))
	}

	// Phase 1 — hedging: slow the home shard of one cell far beyond the
	// hedge delay and dispatch that cell. The hedge must launch on the
	// other shard and answer well before the slow shard would have.
	hedged := cells[0]
	primary := coord.fleet.pick(hedged)
	// Seed the p50 estimate (hedgeDelay reads webmm_cell_seconds): four
	// 50ms observations make the hedge fire at 2×50ms = 100ms.
	hist := coord.tel.Metrics().Histogram("webmm_cell_seconds", "wall time per resolved cell",
		[]float64{0.001, 0.01, 0.1, 1, 10, 60, 600}, nil)
	for i := 0; i < 4; i++ {
		hist.Observe(0.05)
	}
	delays[primary].Store(int64(3 * time.Second))
	spec, _ := json.Marshal(map[string]any{"cell": hedged})
	start := time.Now()
	code, lines := postRun(t, tsc.URL, string(spec))
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("hedged cell: status %d", code)
	}
	if got, want := resultOf(t, lines), direct.Run(hedged); !reflect.DeepEqual(got, want) {
		t.Fatalf("hedged cell result differs from direct run:\ngot  %+v\nwant %+v", got, want)
	}
	if elapsed >= 2500*time.Millisecond {
		t.Fatalf("hedged cell took %v; the slow shard (3s) was not hedged around", elapsed)
	}
	if n := scrapeMetric(t, tsc.URL, "webmm_fleet_hedges_total"); n < 1 {
		t.Fatalf("webmm_fleet_hedges_total = %v, want >= 1", n)
	}
	if n := scrapeMetric(t, tsc.URL, "webmm_fleet_hedge_wins_total"); n < 1 {
		t.Fatalf("webmm_fleet_hedge_wins_total = %v, want >= 1", n)
	}
	delays[primary].Store(0)

	// Phase 2 — the whole experiment through the coordinator, fanned out
	// across both shards, against the direct single-process run.
	code, lines = postRun(t, tsc.URL, `{"experiment":"fig1"}`)
	if code != http.StatusOK {
		t.Fatalf("experiment: status %d", code)
	}
	var gotTables []string
	var cellEvents int
	for _, l := range lines {
		switch l.Event {
		case "cell":
			cellEvents++
			if l.Failed {
				t.Errorf("fanned-out cell %s failed", l.Cell)
			}
		case "done":
			gotTables = l.Tables
		case "error":
			t.Errorf("experiment error event: %s", l.Error)
		}
	}
	if cellEvents != len(cells) {
		t.Errorf("streamed %d cell events, want %d", cellEvents, len(cells))
	}
	out := desc.Run(direct)
	var wantTables []string
	for _, tb := range out.Tables {
		wantTables = append(wantTables, tb.String())
	}
	for _, ch := range out.Charts {
		wantTables = append(wantTables, ch.String())
	}
	if !reflect.DeepEqual(gotTables, wantTables) {
		t.Fatalf("coordinator tables differ from single-process run:\ngot  %q\nwant %q",
			gotTables, wantTables)
	}

	// Phase 3 — every planned cell one-by-one over the verbatim "cell"
	// protocol, DeepEqual against the direct runner.
	for _, c := range cells {
		spec, _ := json.Marshal(map[string]any{"cell": c})
		code, lines := postRun(t, tsc.URL, string(spec))
		if code != http.StatusOK {
			t.Fatalf("cell %s: status %d", c.Key(), code)
		}
		if got, want := resultOf(t, lines), direct.Run(c); !reflect.DeepEqual(got, want) {
			t.Errorf("cell %s: fleet result differs from direct run", c.Key())
		}
	}

	// Phase 4 — the shared cache really is shared: a brand-new runner
	// pointed at the remote store must hit entries the fleet wrote.
	fresh := experiments.NewRunner(testSim())
	fresh.Cache = experiments.NewCellCacheOn(experiments.NewHTTPBackend(cacheSrv.URL))
	if res := fresh.Run(cells[0]); res.Failed {
		t.Fatal("shared-cache run failed")
	}
	if m := fresh.BuildManifest(nil); m.CacheHits < 1 {
		t.Fatalf("fresh runner saw %d remote cache hits, want >= 1", m.CacheHits)
	}

	// Phase 5 — tear the whole fleet down and require the goroutine
	// baseline back (nothing leaked per dispatch, hedge, or request).
	tsc.Close()
	coord.Close()
	ts0.Close()
	ts1.Close()
	w0.Close()
	w1.Close()
	cacheSrv.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d still above baseline %d after fleet teardown",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestFleetCoalesces: identical in-flight cells from concurrent clients
// must collapse to ONE upstream dispatch — the coordinator's singleflight
// working fleet-wide.
func TestFleetCoalesces(t *testing.T) {
	cacheMux := http.NewServeMux()
	cacheMux.Handle("/cache/", experiments.CacheHandler(experiments.NewMemBackend()))
	cacheSrv := httptest.NewServer(cacheMux)
	defer cacheSrv.Close()

	w, err := New(Config{Jobs: 2, QueueDepth: 16, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var hits atomic.Int64
	gate := make(chan struct{})
	h := w.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/run" {
			hits.Add(1)
			select {
			case <-gate:
			case <-time.After(10 * time.Second):
			}
		}
		h.ServeHTTP(rw, r)
	}))
	defer ts.Close()

	coord, err := New(Config{Jobs: 4, QueueDepth: 16, Sim: testSim(),
		Workers: []string{ts.URL}, HedgeAfter: -1,
		Cache: experiments.NewHTTPBackend(cacheSrv.URL)})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	tsc := httptest.NewServer(coord.Handler())
	defer tsc.Close()

	body := `{"platform":"xeon","alloc":"ddmalloc","workload":"phpBB","cores":1}`
	results := make([]experiments.CellResult, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, lines := postRun(t, tsc.URL, body)
			if code != http.StatusOK {
				t.Errorf("request %d: status %d", i, code)
				return
			}
			results[i] = resultOf(t, lines)
		}(i)
	}
	// Give both requests time to reach the runner (the second must find the
	// first's flight and wait on it), then release the worker.
	time.Sleep(300 * time.Millisecond)
	close(gate)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("2 identical concurrent requests made %d upstream dispatches, want 1", n)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("coalesced requests returned different results")
	}
}

// lyingShard fronts a real worker handler but rewrites every dispatched
// cell to a neighbouring one (one more core) before forwarding, so the
// worker answers — correctly — for a cell the coordinator did not ask for.
func lyingShard(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/run" {
			var req runRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.CellSpec == nil {
				http.Error(rw, "lying shard: want a cell dispatch", http.StatusBadRequest)
				return
			}
			other := *req.CellSpec
			other.Cores++
			req.CellSpec = &other
			body, _ := json.Marshal(req)
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		h.ServeHTTP(rw, r)
	})
}

// TestFleetFailsOverDeadShard: a home shard that cannot be reached, or that
// answers for a different cell than it was sent, costs one transparent retry
// on the next shard, not a failed cell — and never a wrong result.
func TestFleetFailsOverDeadShard(t *testing.T) {
	w, err := New(Config{Jobs: 2, QueueDepth: 16, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()

	// A URL that refuses connections: bind, note the port, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	var lies atomic.Int64
	lying := lyingShard(w.Handler())
	liar := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/run" {
			lies.Add(1)
		}
		lying.ServeHTTP(rw, r)
	}))
	defer liar.Close()

	cell := experiments.Cell{Platform: "xeon", Alloc: "ddmalloc", Workload: "phpBB", Cores: 1}
	want := experiments.NewRunner(testSim()).Run(cell)
	for _, tc := range []struct {
		name, homeURL string
	}{
		{"dead", deadURL},
		{"wrong-cell", liar.URL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// pick depends only on the cell key and the worker count, so
			// place the bad shard at the cell's home index: the dispatch
			// MUST fail over to get the right answer.
			home := (&fleet{workers: make([]string, 2)}).pick(cell)
			workers := make([]string, 2)
			workers[home], workers[1-home] = tc.homeURL, ts.URL

			coord, err := New(Config{Jobs: 2, QueueDepth: 16, Sim: testSim(),
				Workers: workers, HedgeAfter: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			tsc := httptest.NewServer(coord.Handler())
			defer tsc.Close()

			if coord.fleet.pick(cell) != home || coord.fleet.workers[home] != tc.homeURL {
				t.Fatal("test setup: home shard is not the bad one")
			}
			spec, _ := json.Marshal(map[string]any{"cell": cell})
			code, lines := postRun(t, tsc.URL, string(spec))
			if code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
			got := resultOf(t, lines)
			if got.Failed {
				t.Fatal("cell failed despite a live, honest second shard")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("failed-over result differs from direct run")
			}
			if n := scrapeMetric(t, tsc.URL, "webmm_fleet_hedge_wins_total"); n != 1 {
				t.Fatalf("webmm_fleet_hedge_wins_total = %v, want 1 (answered by the second shard)", n)
			}
		})
	}
	if n := lies.Load(); n != 1 {
		t.Fatalf("lying shard saw %d dispatches, want 1", n)
	}
}

// TestFleetTransientFailureNotPoisoned: when no shard gives a usable answer
// — every shard is unreachable, the only one answers for a different cell,
// or it answers under a different config (a worker at the Degrade rung
// runs sampled fidelity) — the cell fails with a transient verdict that is
// NOT memoized: once the shard recovers, the same request succeeds without
// restarting the coordinator.
func TestFleetTransientFailureNotPoisoned(t *testing.T) {
	for _, mode := range []string{"down", "lying", "degraded"} {
		t.Run(mode, func(t *testing.T) {
			wcfg := Config{Jobs: 2, QueueDepth: 16, Sim: testSim()}
			if mode == "degraded" {
				wcfg.GlobalBudget = 100 * mem.MiB
			}
			w, err := New(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			var faulty atomic.Bool
			faulty.Store(true)
			h := w.Handler()
			liar := lyingShard(h)
			ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				switch {
				case !faulty.Load() || mode == "degraded":
					h.ServeHTTP(rw, r)
				case mode == "lying":
					liar.ServeHTTP(rw, r)
				case r.URL.Path == "/run":
					http.Error(rw, "shard down", http.StatusBadGateway)
				default:
					h.ServeHTTP(rw, r)
				}
			}))
			defer ts.Close()

			waitPressure := func(ok func(float64) bool) {
				t.Helper()
				deadline := time.Now().Add(5 * time.Second)
				for !ok(w.budget.Pressure()) {
					if time.Now().After(deadline) {
						t.Fatalf("worker pressure stuck at %.2f", w.budget.Pressure())
					}
					time.Sleep(time.Millisecond)
				}
			}
			var lease *budget.Lease
			if mode == "degraded" {
				// An external tenant holding 75% of the worker's budget puts
				// it at the Degrade rung: it still answers, at sampled
				// fidelity.
				as := mem.NewAddressSpace(1<<32, mem.GiB, mem.LargePageShiftXeon)
				as.Map(75*mem.MiB, mem.KiB, mem.SmallPages)
				lease = w.budget.Admit("external-tenant", []*mem.AddressSpace{as})
				defer lease.Release()
				waitPressure(func(p float64) bool { return p >= 0.70 })
			}

			coord, err := New(Config{Jobs: 2, QueueDepth: 16, Sim: testSim(),
				Workers: []string{ts.URL}, HedgeAfter: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			tsc := httptest.NewServer(coord.Handler())
			defer tsc.Close()

			body := `{"platform":"xeon","alloc":"ddmalloc","workload":"phpBB","cores":1}`
			code, lines := postRun(t, tsc.URL, body)
			if code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
			if res := resultOf(t, lines); !res.Failed {
				t.Fatalf("cell succeeded with no usable shard (%s)", mode)
			}

			faulty.Store(false)
			if lease != nil {
				lease.Release()
				waitPressure(func(p float64) bool { return p < 0.70 })
			}
			code, lines = postRun(t, tsc.URL, body)
			if code != http.StatusOK {
				t.Fatalf("status %d after recovery", code)
			}
			got := resultOf(t, lines)
			if got.Failed {
				t.Fatalf("transient %s shard was memoized: cell still failing after recovery", mode)
			}
			direct := experiments.NewRunner(testSim())
			if want := direct.Run(experiments.Cell{Platform: "xeon", Alloc: "ddmalloc", Workload: "phpBB", Cores: 1}); !reflect.DeepEqual(got, want) {
				t.Fatal("recovered result differs from direct run")
			}
		})
	}
}

// TestFleetPinsZeroWarmup: a coordinator at warmup 0 dispatches warmup 0
// explicitly, so a worker started with another warmup default simulates
// the coordinator's config, and the fleet's answer equals a direct
// warmup-0 run. (Before warmup was a pointer, omitempty dropped the 0 and
// the worker ran its own default.)
func TestFleetPinsZeroWarmup(t *testing.T) {
	w, err := New(Config{Jobs: 2, QueueDepth: 16, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	cfg := testSim()
	cfg.Warmup = 0
	if cfg.Warmup == w.cfg.Sim.Warmup {
		t.Fatal("worker and coordinator share a warmup default; the test needs them apart")
	}
	coord, err := New(Config{Jobs: 2, QueueDepth: 16, Sim: cfg,
		Workers: []string{ts.URL}, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	tsc := httptest.NewServer(coord.Handler())
	defer tsc.Close()

	code, lines := postRun(t, tsc.URL, `{"platform":"xeon","alloc":"ddmalloc","workload":"phpBB","cores":2}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	got := resultOf(t, lines)
	want := experiments.NewRunner(cfg).Run(experiments.Cell{Platform: "xeon", Alloc: "ddmalloc", Workload: "phpBB", Cores: 2})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet result at coordinator warmup 0 differs from a direct warmup-0 run (failed %v, %.2f vs %.2f txn/s)",
			got.Failed, got.Res.Throughput, want.Res.Throughput)
	}
}

// TestFleetPinsLargePagesOff: a coordinator without Xeon large pages sends
// "xeon_large_pages":false explicitly, so a worker whose default has them
// on simulates the coordinator's config, and the fleet's answer equals a
// direct run. (While the field was a plain bool, omitempty dropped the
// false, the worker ran with large pages, and the coordinator refused its
// result as one under another config.)
func TestFleetPinsLargePagesOff(t *testing.T) {
	wcfg := testSim()
	wcfg.XeonLargePages = true
	w, err := New(Config{Jobs: 2, QueueDepth: 16, Sim: wcfg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	coord, err := New(Config{Jobs: 2, QueueDepth: 16, Sim: testSim(),
		Workers: []string{ts.URL}, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	tsc := httptest.NewServer(coord.Handler())
	defer tsc.Close()

	cell := experiments.Cell{Platform: "xeon", Alloc: "ddmalloc", Workload: "phpBB", Cores: 2}
	want := experiments.NewRunner(testSim()).Run(cell)
	if reflect.DeepEqual(want, experiments.NewRunner(wcfg).Run(cell)) {
		t.Fatal("large pages do not change this cell; the test needs them to")
	}
	code, lines := postRun(t, tsc.URL, `{"platform":"xeon","alloc":"ddmalloc","workload":"phpBB","cores":2}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got := resultOf(t, lines); !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet result without large pages differs from a direct run (failed %v, %.2f vs %.2f txn/s)",
			got.Failed, got.Res.Throughput, want.Res.Throughput)
	}
}
