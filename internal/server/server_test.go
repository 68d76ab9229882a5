package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"webmm/internal/experiments"
	"webmm/internal/workload"
)

// testSim is a cheap simulation config for the service tests.
func testSim() experiments.Config {
	return experiments.Config{Scale: 64, Warmup: 1, Measure: 1, Seed: 7}
}

// progressLine is one decoded NDJSON event from a /run response.
type progressLine struct {
	Event   string          `json:"event"`
	Cell    string          `json:"cell"`
	Failed  bool            `json:"failed"`
	Result  json.RawMessage `json:"result"`
	Tables  []string        `json:"tables"`
	Error   string          `json:"error"`
	Done    int             `json:"done"`
	Total   int             `json:"total"`
	Fails   []string        `json:"failures"`
	QDepth  *int            `json:"queue_depth"`
	QueueCP int             `json:"queue_cap"`
}

// postRun POSTs a /run body and decodes the whole NDJSON stream.
func postRun(t *testing.T, url, body string) (int, []progressLine) {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer resp.Body.Close()
	var lines []progressLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l progressLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	return resp.StatusCode, lines
}

// resultOf extracts the final "result" event's CellResult.
func resultOf(t *testing.T, lines []progressLine) experiments.CellResult {
	t.Helper()
	for _, l := range lines {
		if l.Event == "result" {
			var res experiments.CellResult
			if err := json.Unmarshal(l.Result, &res); err != nil {
				t.Fatalf("bad result payload: %v", err)
			}
			return res
		}
	}
	t.Fatalf("no result event in %+v", lines)
	return experiments.CellResult{}
}

// TestServeMatchesDirectRun is the service's determinism contract: N
// concurrent requests through the HTTP path must return cell results
// deep-equal to running the same cells directly on a Runner (the CLI path),
// including full JSON round-trip fidelity.
func TestServeMatchesDirectRun(t *testing.T) {
	s, err := New(Config{Jobs: 2, QueueDepth: 16, Sim: testSim(), CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wl := workload.PhpBB().Name
	cells := []experiments.Cell{
		{Platform: "xeon", Alloc: "default", Workload: wl, Cores: 1},
		{Platform: "xeon", Alloc: "region", Workload: wl, Cores: 2},
		{Platform: "xeon", Alloc: "ddmalloc", Workload: wl, Cores: 1},
		{Platform: "niagara", Alloc: "default", Workload: wl, Cores: 2},
		{Platform: "niagara", Alloc: "ddmalloc", Workload: wl, Cores: 1},
		{Platform: "xeon", Alloc: "default", Workload: wl, Cores: 1}, // duplicate: memo path
	}
	direct := experiments.NewRunner(testSim())

	got := make([]experiments.CellResult, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c experiments.Cell) {
			defer wg.Done()
			body := fmt.Sprintf(`{"platform":%q,"alloc":%q,"workload":%q,"cores":%d}`,
				c.Platform, c.Alloc, c.Workload, c.Cores)
			code, lines := postRun(t, ts.URL, body)
			if code != http.StatusOK {
				t.Errorf("cell %d: status %d", i, code)
				return
			}
			got[i] = resultOf(t, lines)
		}(i, c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, c := range cells {
		want := direct.Run(c)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("cell %s: served result differs from direct Run", c.Key())
		}
	}
}

// TestServeTimeoutAndFaults: a request-level timeout_ms fails its cell
// without disturbing the server, and a fault-injection request runs through
// the same endpoint with the plan applied.
func TestServeTimeoutAndFaults(t *testing.T) {
	s, err := New(Config{Jobs: 2, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Scale 16 runs long enough that a 1ms budget always expires mid-cell.
	code, lines := postRun(t, ts.URL,
		`{"platform":"xeon","alloc":"default","workload":"phpBB","cores":1,"scale":16,"timeout_ms":1}`)
	if code != http.StatusOK {
		t.Fatalf("timeout request: status %d", code)
	}
	if res := resultOf(t, lines); !res.Failed {
		t.Error("1ms timeout_ms did not fail the cell")
	}

	// Guaranteed injected panic: the runner retries once, reports failure,
	// and the server keeps serving.
	code, lines = postRun(t, ts.URL,
		`{"platform":"xeon","alloc":"default","workload":"phpBB","cores":1,"faults":"panic:1"}`)
	if code != http.StatusOK {
		t.Fatalf("faults request: status %d", code)
	}
	if res := resultOf(t, lines); !res.Failed {
		t.Error("faults=panic:1 did not fail the cell")
	}

	// Probabilistic OOM injection at a survivable rate still completes the
	// request (failed or not is the workload's business).
	code, lines = postRun(t, ts.URL,
		`{"platform":"xeon","alloc":"default","workload":"phpBB","cores":1,"faults":"oom:0.05"}`)
	if code != http.StatusOK {
		t.Fatalf("oom faults request: status %d", code)
	}
	resultOf(t, lines)

	// The healthy path still works after all that.
	code, lines = postRun(t, ts.URL,
		`{"platform":"xeon","alloc":"region","workload":"phpBB","cores":1}`)
	if code != http.StatusOK {
		t.Fatalf("post-fault request: status %d", code)
	}
	if res := resultOf(t, lines); res.Failed {
		t.Error("healthy cell failed after fault requests")
	}
}

// TestServeRejectsWhenFull pins the admission contract: with the worker and
// every queue slot occupied, the next request gets 429 + Retry-After, and
// once the pool frees up the same request succeeds.
func TestServeRejectsWhenFull(t *testing.T) {
	s, err := New(Config{Jobs: 1, QueueDepth: 1, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Blocker jobs park their worker inside emit (unbuffered events channel
	// nobody drains) until their context is cancelled — no timing games.
	ctx, release := context.WithCancel(context.Background())
	defer release() // any Fatal below must still unpark the workers for Close
	r, err := s.runnerFor(runnerKey{cfg: s.cfg.Sim})
	if err != nil {
		t.Fatal(err)
	}
	blocker := func() *job {
		return &job{ctx: ctx, r: r,
			cell:   experiments.Cell{Platform: "xeon", Alloc: "region", Workload: workload.PhpBB().Name, Cores: 1},
			events: make(chan event)}
	}
	// First blocker parks the only worker; wait for the pickup (the queue
	// slot must be free again) before the second blocker fills the queue.
	if !s.enqueue(blocker()) {
		t.Fatal("first blocker rejected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never picked up the blocker: inflight %d", s.inflight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if !s.enqueue(blocker()) {
		t.Fatal("queue-filling blocker rejected")
	}

	body := `{"platform":"xeon","alloc":"default","workload":"phpBB","cores":1}`
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	release() // blockers cancel cooperatively, the pool drains
	deadline = time.Now().Add(5 * time.Second)
	for s.finished.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("blockers never drained after release")
		}
		time.Sleep(time.Millisecond)
	}
	code, lines := postRun(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("post-release request: status %d", code)
	}
	if res := resultOf(t, lines); res.Failed {
		t.Error("post-release cell failed")
	}
}

// TestServeExperimentStreamsProgress: an experiment request streams one
// "cell" event per planned cell and finishes with rendered tables.
func TestServeExperimentStreamsProgress(t *testing.T) {
	cfg := experiments.Config{Scale: 512, Warmup: 1, Measure: 1, Seed: 7}
	s, err := New(Config{Jobs: 2, Sim: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, lines := postRun(t, ts.URL, `{"experiment":"fig1"}`)
	if code != http.StatusOK {
		t.Fatalf("experiment request: status %d", code)
	}
	var cells, done int
	var tables []string
	for _, l := range lines {
		switch l.Event {
		case "cell":
			cells++
			if l.Total == 0 || l.Cell == "" {
				t.Errorf("cell event missing progress fields: %+v", l)
			}
		case "done":
			done++
			tables = l.Tables
		}
	}
	if cells == 0 {
		t.Error("experiment streamed no per-cell progress")
	}
	if plan := experiments.NewRunner(cfg).CellsFor("fig1"); cells != len(plan) {
		t.Errorf("streamed %d cell events for a plan of %d cells", cells, len(plan))
	}
	if done != 1 || len(tables) == 0 {
		t.Errorf("want one done event with tables, got done=%d tables=%d", done, len(tables))
	}
}

// doneOf returns the "done" event of an experiment stream.
func doneOf(t *testing.T, lines []progressLine) progressLine {
	t.Helper()
	for _, l := range lines {
		if l.Event == "done" {
			return l
		}
	}
	t.Fatalf("no done event in %+v", lines)
	return progressLine{}
}

// TestServeExperimentListsOwnFailures: an experiment's done event lists each
// failed cell of its own plan once, with its latest error. Requests that
// agree on (config, faults, timeout) share one runner, so a later request
// must not inherit the failures an earlier one left on it, and a cell that
// timed out must not be simulated again to render it.
func TestServeExperimentListsOwnFailures(t *testing.T) {
	// Scale 16 cells run for hundreds of milliseconds, so a 1ms budget
	// always expires mid-simulation.
	cfg := experiments.Config{Scale: 16, Warmup: 1, Measure: 1, Seed: 7}
	s, err := New(Config{Jobs: 1, Sim: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, lines := postRun(t, ts.URL, `{"experiment":"fig1","timeout_ms":1}`)
	plan := experiments.NewRunner(cfg).CellsFor("fig1")
	fails := doneOf(t, lines).Fails
	if len(fails) != len(plan) {
		t.Fatalf("fig1 under a 1ms timeout lists %d failures for its %d cells: %q", len(fails), len(plan), fails)
	}
	for i, f := range fails {
		if !strings.HasPrefix(f, plan[i].Key()+": ") || !strings.Contains(f, "timeout") {
			t.Errorf("failure %d = %q, want %s's timeout", i, f, plan[i].Key())
		}
	}
	_, lines = postRun(t, ts.URL, `{"experiment":"table2","timeout_ms":1}`)
	if fails := doneOf(t, lines).Fails; len(fails) != 0 {
		t.Errorf("table2 simulates nothing but lists failures %q", fails)
	}
}

// TestServeMemSchedExperimentGroups: a plain server runs an experiment
// through Runner.Experiment, so the memsched sweep's siblings share one
// pricing pass per allocator (the bus cell and the four policies at 4 and
// 8 cores: 10 cells). It streams one cell event per distinct cell and
// renders the tables Runner.Experiment renders.
func TestServeMemSchedExperimentGroups(t *testing.T) {
	cfg := experiments.Config{Scale: 256, Warmup: 1, Measure: 1, Seed: 7}
	s, err := New(Config{Jobs: 1, Sim: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, lines := postRun(t, ts.URL, `{"experiment":"memsched"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	plan := experiments.NewRunner(cfg).CellsFor("memsched")
	seen := map[string]bool{}
	for _, l := range lines {
		switch l.Event {
		case "cell":
			if seen[l.Cell] || l.Total != len(plan) || l.Failed {
				t.Errorf("cell event %+v: repeated, failed, or not out of %d", l, len(plan))
			}
			seen[l.Cell] = true
		case "error":
			t.Fatalf("error event: %s", l.Error)
		}
	}
	if len(seen) != len(plan) {
		t.Errorf("streamed %d distinct cells for a plan of %d", len(seen), len(plan))
	}
	s.mu.Lock()
	r := s.runners[runnerKey{cfg: cfg}]
	s.mu.Unlock()
	m := r.BuildManifest(nil)
	if len(m.Cells) != len(plan) {
		t.Errorf("manifest has %d rows for a plan of %d", len(m.Cells), len(plan))
	}
	for _, mc := range m.Cells {
		if mc.Shared != 10 {
			t.Errorf("%s/%s/%d cores/%q: shared %d, want 10", mc.Platform, mc.Alloc, mc.Cores, mc.MemSched, mc.Shared)
		}
	}

	out, err := experiments.NewRunner(cfg).Experiment(context.Background(), "memsched", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, tb := range out.Tables {
		want = append(want, tb.String())
	}
	for _, ch := range out.Charts {
		want = append(want, ch.String())
	}
	if got := doneOf(t, lines).Tables; !reflect.DeepEqual(got, want) {
		t.Errorf("served tables differ from Runner.Experiment's:\ngot  %q\nwant %q", got, want)
	}
}

// TestServeBadRequests: malformed and invalid bodies are 400s that never
// consume a queue slot.
func TestServeBadRequests(t *testing.T) {
	s, err := New(Config{Jobs: 1, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{`,
		`{"experiment":"nonsense"}`,
		`{"alloc":"default"}`,
		`{"alloc":"no-such","workload":"phpBB"}`,
		`{"platform":"vax","alloc":"default","workload":"phpBB"}`,
		`{"alloc":"default","workload":"phpBB","scale":3}`,
		`{"alloc":"default","workload":"phpBB","faults":"frobnicate:1"}`,
		`{"alloc":"default","workload":"phpBB","memsched":"fifo"}`,
		`{"alloc":"default","workload":"phpBB","unknown_field":1}`,
		// Cells that used to pass validation and fail only after taking a
		// queue slot: more cores than the platform has (a panic in
		// machine.New), a Ruby cell on an allocator outside the Ruby
		// study, and a PHP cell on an allocator without freeAll.
		`{"alloc":"ddmalloc","workload":"phpBB","cores":9}`,
		`{"alloc":"region","ruby":true}`,
		`{"alloc":"glibc","workload":"phpBB"}`,
		// Rounds that used to be admitted: a negative warmup got a runner
		// and cache key of its own for the warmup-0 result, and measure 0
		// or below cached a zero-transaction result.
		`{"alloc":"default","workload":"phpBB","warmup":-1}`,
		`{"alloc":"default","workload":"phpBB","measure":-2}`,
		`{"alloc":"default","workload":"phpBB","scale":-4}`,
		// Restart periods, in the flat and the verbatim form: a negative
		// period (it used to run at period 2, or never restart), and a
		// period on a PHP cell (it used to get a memo and cache entry of
		// its own).
		`{"alloc":"glibc","ruby":true,"restart_every":-1}`,
		`{"cell":{"Platform":"xeon","Alloc":"glibc","Workload":"RubyOnRails","Cores":8,"Ruby":true,"RestartEvery":-5}}`,
		`{"alloc":"default","workload":"phpBB","restart_every":7}`,
		`{"cell":{"Platform":"xeon","Alloc":"default","Workload":"phpBB","Cores":8,"RestartEvery":7}}`,
	} {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if got := s.accepted.Load(); got != 0 {
		t.Errorf("bad requests consumed %d queue slots", got)
	}
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status %d, want 405", resp.StatusCode)
	}
}

// TestBuildJobRestartPeriods: the flat restart period is rescaled like the
// figures' (500 at scale 64 is 62), and a period too large to scale
// saturates to no restart within the run instead of wrapping to the
// minimum period 2.
func TestBuildJobRestartPeriods(t *testing.T) {
	s, err := New(Config{Jobs: 1, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for period, want := range map[int]int{
		500:                 62,
		2305843009213693952: math.MaxInt / 8 * 8 / 64,
	} {
		j, err := s.buildJob(context.Background(), runRequest{Alloc: "glibc", Ruby: true, RestartEvery: period})
		if err != nil {
			t.Fatalf("restart_every %d: %v", period, err)
		}
		if got := j.cell.RestartEvery; got != want {
			t.Errorf("restart_every %d maps to period %d, want %d", period, got, want)
		}
	}
}

// TestNewRejectsBadRounds: the server's default config goes through
// Config.Validate, so `webmm serve -warmup -4` or `-measure -2` fails at
// startup instead of serving requests under it.
func TestNewRejectsBadRounds(t *testing.T) {
	for _, sim := range []experiments.Config{
		{Scale: 64, Warmup: -4, Measure: 1},
		{Scale: 64, Warmup: 1, Measure: -2},
		{Scale: 3, Warmup: 1, Measure: 1},
		{Scale: 64, Warmup: 1, Measure: 1, Fidelity: "bogus"},
	} {
		if s, err := New(Config{Jobs: 1, Sim: sim}); err == nil {
			s.Close()
			t.Errorf("New accepted Sim %+v", sim)
		}
	}
}

// TestServeMemSched: a request naming a DRAM scheduling policy runs the cell
// over the banked memory model and its result carries the DRAM stats; the
// same cell without the field stays on the bus (nil stats).
func TestServeMemSched(t *testing.T) {
	s, err := New(Config{Jobs: 1, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, lines := postRun(t, ts.URL,
		`{"alloc":"ddmalloc","workload":"phpBB","cores":2,"memsched":"frfcfs"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	dram := resultOf(t, lines)
	if dram.Failed {
		t.Fatal("DRAM cell failed")
	}
	if dram.Res.Mem == nil || dram.Res.Mem.Policy != "frfcfs" || dram.Res.Mem.Total() == 0 {
		t.Fatalf("DRAM stats missing from served result: %+v", dram.Res.Mem)
	}

	code, lines = postRun(t, ts.URL, `{"alloc":"ddmalloc","workload":"phpBB","cores":2}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if bus := resultOf(t, lines); bus.Res.Mem != nil {
		t.Fatalf("bus cell carries memory-system stats: %+v", bus.Res.Mem)
	}
}

// TestServeMetricsAndHealthz: the observability endpoints serve the shared
// registry and queue status.
func TestServeMetricsAndHealthz(t *testing.T) {
	s, err := New(Config{Jobs: 1, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := postRun(t, ts.URL,
		`{"platform":"xeon","alloc":"default","workload":"phpBB","cores":1}`); code != http.StatusOK {
		t.Fatalf("run request: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, metric := range []string{"webmm_cells_total", "webmm_server_requests_total"} {
		if !strings.Contains(text, metric) {
			t.Errorf("/metrics missing %s:\n%s", metric, text)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Workers  int    `json:"workers"`
		Accepted uint64 `json:"accepted"`
		Finished uint64 `json:"finished"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Workers != 1 || health.Accepted != 1 || health.Finished != 1 {
		t.Errorf("healthz = %+v", health)
	}
}

// TestServeDrainsOnCancel: ListenAndServe serves real requests over TCP and
// returns nil (clean drain) when its context is cancelled — the SIGTERM path
// without the signal. Afterwards the process is back to its baseline
// goroutine count: the worker pool and listener are gone, nothing leaked.
func TestServeDrainsOnCancel(t *testing.T) {
	base := runtime.NumGoroutine()

	s, err := New(Config{Addr: "127.0.0.1:0", Jobs: 1, Sim: testSim(),
		DrainTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx) }()
	url := "http://" + s.Addr()

	code, lines := postRun(t, url,
		`{"platform":"xeon","alloc":"default","workload":"phpBB","cores":1}`)
	if code != http.StatusOK {
		t.Fatalf("run over TCP: status %d", code)
	}
	if res := resultOf(t, lines); res.Failed {
		t.Error("cell failed over TCP")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ListenAndServe did not return after cancel")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after drain: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
