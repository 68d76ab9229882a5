package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"webmm/internal/budget"
	"webmm/internal/experiments"
	"webmm/internal/mem"
	"webmm/internal/workload"
)

// postRunRaw POSTs a /run body and returns the status plus the decoded
// NDJSON lines as raw maps (for events progressLine does not model).
func postRunRaw(t *testing.T, url, body string) (int, []map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer resp.Body.Close()
	var lines []map[string]any
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("bad NDJSON: %v", err)
		}
		lines = append(lines, m)
	}
	return resp.StatusCode, lines
}

// TestRetryAfterComputed pins the Retry-After estimate white-box: the work
// ahead of the client times the observed median cell latency, clamped to
// [1, 300], with a 1-second floor before any cell has resolved.
func TestRetryAfterComputed(t *testing.T) {
	s, err := New(Config{Jobs: 1, QueueDepth: 2, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Empty histogram: the floor.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("empty-history estimate = %ds, want the 1s floor", got)
	}

	// Two 2-second cells: the (1,10] bucket holds both, p50 interpolates to
	// 5.5s. Empty queue → ceil(1 × 5.5) = 6.
	h := experiments.CellSeconds(s.tel.Metrics())
	h.Observe(2)
	h.Observe(2)
	if got := s.retryAfterSeconds(); got != 6 {
		t.Errorf("estimate = %ds, want 6 (ceil of 1 job x 5.5s p50)", got)
	}

	// Park the worker and put one job in the queue: two jobs ahead of a new
	// client → ceil(2 × 5.5) = 11.
	ctx, release := context.WithCancel(context.Background())
	defer release()
	r, err := s.runnerFor(runnerKey{cfg: s.cfg.Sim})
	if err != nil {
		t.Fatal(err)
	}
	blocker := func() *job {
		return &job{ctx: ctx, r: r,
			cell:   experiments.Cell{Platform: "xeon", Alloc: "region", Workload: workload.PhpBB().Name, Cores: 1},
			events: make(chan event)}
	}
	if !s.enqueue(blocker()) {
		t.Fatal("first blocker rejected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocker")
		}
		time.Sleep(time.Millisecond)
	}
	if !s.enqueue(blocker()) {
		t.Fatal("second blocker rejected")
	}
	if got := s.retryAfterSeconds(); got != 11 {
		t.Errorf("estimate = %ds, want 11 (ceil of 2 jobs x 5.5s p50)", got)
	}

	// A real rejection carries the computed header: the queue is full (two
	// queued + one running... queue holds 2 of cap 2), so the estimate at
	// rejection time is ceil(3 × 5.5) = 17.
	if !s.enqueue(blocker()) {
		t.Fatal("queue-filling blocker rejected")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/run", "application/json",
		strings.NewReader(`{"platform":"xeon","alloc":"default","workload":"phpBB","cores":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue returned %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "17" {
		t.Errorf("Retry-After = %q, want %q (3 jobs x 5.5s p50)", got, "17")
	}
	release()

	// Slow history clamps at 300s: drown the histogram in 600s cells.
	for i := 0; i < 100; i++ {
		h.Observe(600)
	}
	if got := s.retryAfterSeconds(); got != 300 {
		t.Errorf("estimate = %ds, want the 300s clamp", got)
	}
}

// TestPressureLadderAdmission drives the controller's utilization by hand
// (an external tenant holding mapped bytes) and checks each rung of the
// admission ladder: degrade to sampled fidelity, queue (run-now or come
// back), shed.
func TestPressureLadderAdmission(t *testing.T) {
	s, err := New(Config{Jobs: 1, QueueDepth: 4, Sim: testSim(),
		GlobalBudget: 100 * mem.MiB})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"platform":"xeon","alloc":"default","workload":"phpBB","cores":1}`

	waitPressure := func(min float64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.budget.Pressure() < min {
			if time.Now().After(deadline) {
				t.Fatalf("pressure stuck at %.2f, want >= %.2f", s.budget.Pressure(), min)
			}
			time.Sleep(time.Millisecond)
		}
	}
	degradedOf := func(lines []map[string]any) bool {
		for _, l := range lines {
			if l["event"] == "queued" {
				_, ok := l["degraded"]
				return ok
			}
		}
		return false
	}

	// Nominal: served at full fidelity.
	if code, lines := postRunRaw(t, ts.URL, body); code != http.StatusOK || degradedOf(lines) {
		t.Fatalf("nominal request: code %d degraded %v", code, degradedOf(lines))
	}

	// An external tenant maps 75% of the global budget → Degrade.
	as := mem.NewAddressSpace(1<<32, mem.GiB, mem.LargePageShiftXeon)
	as.Map(75*mem.MiB, mem.KiB, mem.SmallPages)
	lease := s.budget.Admit("external-tenant", []*mem.AddressSpace{as})
	defer lease.Release()
	waitPressure(0.70)
	code, lines := postRunRaw(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("degrade-level request: code %d", code)
	}
	if !degradedOf(lines) {
		t.Error("degrade level did not force sampled fidelity")
	}

	// 90% → Queue: an idle worker still takes the request (degraded)...
	as.Map(15*mem.MiB, mem.KiB, mem.SmallPages)
	waitPressure(0.85)
	if code, lines := postRunRaw(t, ts.URL, body); code != http.StatusOK || !degradedOf(lines) {
		t.Fatalf("queue-level request with idle worker: code %d degraded %v", code, degradedOf(lines))
	}
	// ...but with the worker parked, new work is turned away with 503 and a
	// Retry-After instead of growing the queue.
	ctx, release := context.WithCancel(context.Background())
	defer release()
	r, err := s.runnerFor(runnerKey{cfg: s.cfg.Sim})
	if err != nil {
		t.Fatal(err)
	}
	if !s.enqueue(&job{ctx: ctx, r: r,
		cell:   experiments.Cell{Platform: "xeon", Alloc: "region", Workload: workload.PhpBB().Name, Cores: 1},
		events: make(chan event)}) {
		t.Fatal("blocker rejected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocker")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-level request with busy worker: code %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	release()
	for s.finished.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never drained")
		}
		time.Sleep(time.Millisecond)
	}

	// 97% → Shed: refused outright even with every worker idle.
	as.Map(7*mem.MiB, mem.KiB, mem.SmallPages)
	waitPressure(0.95)
	resp, err = http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed-level request: code %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed 429 without Retry-After")
	}

	// /healthz stays green through the whole ladder and reports the rung.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status        string  `json:"status"`
		Pressure      float64 `json:"pressure"`
		PressureLevel string  `json:"pressure_level"`
		BudgetTotal   uint64  `json:"budget_total_bytes"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "ok" {
		t.Errorf("healthz status %q under shed pressure, want ok", health.Status)
	}
	if health.PressureLevel != budget.Shed.String() || health.Pressure < 0.95 {
		t.Errorf("healthz pressure = %.2f %q, want >= 0.95 %q",
			health.Pressure, health.PressureLevel, budget.Shed)
	}
	if health.BudgetTotal != 100*mem.MiB {
		t.Errorf("healthz budget_total_bytes = %d", health.BudgetTotal)
	}

	// Releasing the tenant drops pressure; admissions return to full
	// fidelity.
	lease.Release()
	deadline = time.Now().Add(5 * time.Second)
	for s.budget.Pressure() >= 0.70 {
		if time.Now().After(deadline) {
			t.Fatalf("pressure stuck at %.2f after release", s.budget.Pressure())
		}
		time.Sleep(time.Millisecond)
	}
	if code, lines := postRunRaw(t, ts.URL, body); code != http.StatusOK || degradedOf(lines) {
		t.Errorf("post-release request: code %d degraded %v", code, degradedOf(lines))
	}
}

// TestServeChaosUnderBudgetSqueeze is the robustness acceptance test: a
// server calibrated to half its unconstrained peak live bytes, hammered
// concurrently with mixed PHP and restarting-Ruby work plus injected OOM and
// squeeze faults, must keep /healthz green, never panic, leak no goroutines
// past drain, and return bit-identical results for the cells the budget
// never touched.
func TestServeChaosUnderBudgetSqueeze(t *testing.T) {
	base := runtime.NumGoroutine()

	// Calibrate: one pass under an effectively unlimited budget records the
	// load's unconstrained peak.
	cal, err := New(Config{Jobs: 2, Sim: testSim(), GlobalBudget: 16 * mem.GiB})
	if err != nil {
		t.Fatal(err)
	}
	calTS := httptest.NewServer(cal.Handler())
	phpBody := func(alloc string) string {
		return fmt.Sprintf(`{"platform":"xeon","alloc":%q,"workload":"phpBB","cores":1}`, alloc)
	}
	rubyBody := `{"alloc":"glibc","ruby":true,"restart_every":2,"cores":1}`
	for _, body := range []string{phpBody("default"), phpBody("region"), phpBody("ddmalloc"), rubyBody} {
		if code, _ := postRun(t, calTS.URL, body); code != http.StatusOK {
			t.Fatalf("calibration request: status %d", code)
		}
	}
	peak := cal.budget.PeakLive()
	calTS.Close()
	cal.Close()
	if peak == 0 {
		t.Fatal("calibration observed no live bytes")
	}

	// The squeezed server gets half the unconstrained peak.
	s, err := New(Config{Jobs: 2, QueueDepth: 32, Sim: testSim(), GlobalBudget: peak / 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	// Health poller: /healthz must answer 200 "ok" for the whole run.
	stopHealth := make(chan struct{})
	healthErr := make(chan error, 1)
	go func() {
		defer close(healthErr)
		for {
			select {
			case <-stopHealth:
				return
			case <-time.After(2 * time.Millisecond):
			}
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				healthErr <- err
				return
			}
			var h struct {
				Status string `json:"status"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || derr != nil || h.Status != "ok" {
				healthErr <- fmt.Errorf("healthz code %d status %q err %v", resp.StatusCode, h.Status, derr)
				return
			}
		}
	}()

	// The chaos mix: clean PHP cells, restarting Ruby, injected OOM, and a
	// mid-run squeeze, all concurrent. Overload answers (429/503) are part
	// of the design; server errors and transport failures are not.
	bodies := []string{
		phpBody("default"), phpBody("region"), phpBody("ddmalloc"),
		rubyBody,
		`{"platform":"xeon","alloc":"default","workload":"phpBB","cores":1,"faults":"oom:0.05"}`,
		`{"alloc":"glibc","ruby":true,"restart_every":2,"cores":1,"faults":"oom:0.05"}`,
		`{"alloc":"glibc","ruby":true,"restart_every":2,"cores":1,"faults":"squeeze:0.5"}`,
		`{"platform":"xeon","alloc":"ddmalloc","workload":"phpBB","cores":1,"faults":"squeeze:0.5"}`,
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var overloaded int
	for round := 0; round < 3; round++ {
		for _, body := range bodies {
			wg.Add(1)
			go func(body string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("POST /run: %v", err)
					return
				}
				defer resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					dec := json.NewDecoder(resp.Body)
					for dec.More() {
						var m map[string]any
						if err := dec.Decode(&m); err != nil {
							t.Errorf("broken NDJSON stream: %v", err)
							return
						}
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					mu.Lock()
					overloaded++
					mu.Unlock()
					if resp.Header.Get("Retry-After") == "" {
						t.Error("overload answer without Retry-After")
					}
				default:
					t.Errorf("chaos request %s: status %d", body, resp.StatusCode)
				}
			}(body)
		}
		wg.Wait()
	}
	t.Logf("chaos: peak %d bytes, budget %d, %d overload answers, %d denials",
		peak, peak/2, overloaded, s.budget.Denials())

	// Determinism: cells the controller never denied are bit-identical to a
	// direct (budget-free) run.
	direct := experiments.NewRunner(testSim())
	for _, alloc := range []string{"default", "region", "ddmalloc"} {
		code, lines := postRun(t, ts.URL, phpBody(alloc))
		if code != http.StatusOK {
			// The mix may still hold the server at queue/shed; these cells'
			// determinism is covered whenever they do get through.
			continue
		}
		res := resultOf(t, lines)
		if res.Pressured {
			continue // the budget touched it; no determinism claim
		}
		want := direct.Run(experiments.Cell{Platform: "xeon", Alloc: alloc,
			Workload: workload.PhpBB().Name, Cores: 1})
		if !reflect.DeepEqual(res, want) {
			t.Errorf("%s: served result differs from direct run under budget", alloc)
		}
	}

	close(stopHealth)
	if err := <-healthErr; err != nil {
		t.Errorf("healthz went red during chaos: %v", err)
	}
	ts.Close()
	s.Close()

	// No goroutines past drain.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after chaos drain: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
