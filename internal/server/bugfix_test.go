package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestAddrUnblocksOnListenFailure: ListenAndServe on an address that cannot
// bind must still release concurrent Addr() callers (returning ""), not
// leave them parked on the ready channel forever.
func TestAddrUnblocksOnListenFailure(t *testing.T) {
	// Occupy a port so the server's listen deterministically fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	s, err := New(Config{Addr: ln.Addr().String(), Jobs: 1, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ListenAndServe(context.Background()) }()

	addrc := make(chan string, 1)
	go func() { addrc <- s.Addr() }()
	select {
	case addr := <-addrc:
		if addr != "" {
			t.Fatalf("Addr() = %q on a failed listen, want \"\"", addr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Addr() still blocked 5s after the listen failed")
	}
	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("ListenAndServe returned nil for an occupied address")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not return")
	}
}

// TestSlowHeaderClientCut: a client that dribbles its request headers (a
// slowloris) must be cut off by ReadHeaderTimeout rather than holding a
// connection open indefinitely.
func TestSlowHeaderClientCut(t *testing.T) {
	s, err := New(Config{Jobs: 1, Sim: testSim(), ReadHeaderTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx) }()
	defer func() {
		cancel()
		<-done
	}()
	addr := s.Addr()
	if addr == "" {
		t.Fatal("server failed to listen")
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request line, then silence: never finish the headers.
	if _, err := io.WriteString(conn, "POST /run HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a half-sent request")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server left the slow-header connection open past 5s")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("connection closed after %v, want ~ReadHeaderTimeout (200ms)", elapsed)
	}
}

// TestDisconnectFreesWorkerAndGoroutines is the serve-path drain contract
// the fleet depends on: a client that disconnects mid-cell must cancel the
// cell's context (here: a remote dispatch parked on a hung worker), free
// the worker slot, and return the server to its goroutine baseline. Without
// r.Context() propagating into the job, the hung dispatch would pin the
// slot forever.
func TestDisconnectFreesWorkerAndGoroutines(t *testing.T) {
	// A "worker" that accepts the dispatch and then hangs until the request
	// context dies — the worst-case remote cell.
	entered := make(chan struct{}, 8)
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Consume the body (as the real handleRun does) so the HTTP server
		// starts its background read and can observe the peer vanishing.
		_, _ = io.Copy(io.Discard, r.Body)
		entered <- struct{}{}
		<-r.Context().Done()
	}))
	defer hung.Close()

	s, err := New(Config{Jobs: 1, QueueDepth: 4, Sim: testSim(),
		Workers: []string{hung.URL}, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"platform":"xeon","alloc":"ddmalloc","workload":"phpBB","cores":1}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Wait until the cell is actually parked on the hung worker, then
	// disconnect the client.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch never reached the worker")
	}
	if got := s.inflight.Load(); got != 1 {
		t.Fatalf("inflight = %d with a parked cell, want 1", got)
	}
	cancel()

	// The worker slot must free: the next request gets served, not queued
	// behind a zombie.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight still %d 5s after client disconnect", s.inflight.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the goroutines the request spawned (handler, job, dispatch, HTTP
	// plumbing) must all unwind to the baseline.
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d still above baseline %d 5s after disconnect",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The server must still serve: the freed slot takes new work (served
	// locally would block on the hung worker again, so just check health).
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health struct {
		Status   string `json:"status"`
		Inflight int    `json:"inflight"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Inflight != 0 {
		t.Fatalf("healthz after disconnect: %+v", health)
	}
}

// TestStreamEndReleasesSlot: a client that has read its whole NDJSON
// stream must find the request's worker slot released and the request
// counted as finished, or its next POST can be refused by the Queue
// pressure rung's in-flight check. Every request after the first is a memo
// hit, so the worker's release races the stream's end as closely as it can.
// That race is narrow, so the test first pins the order directly: execute
// leaves the stream open, and only the worker closes it.
func TestStreamEndReleasesSlot(t *testing.T) {
	s, err := New(Config{Jobs: 1, QueueDepth: 4, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	j := &job{ctx: gone, events: make(chan event, 1)}
	j.execute() // the client left while queued: nothing to run
	select {
	case _, open := <-j.events:
		if !open {
			t.Fatal("execute closed the stream; the worker must close it after releasing the slot")
		}
	default:
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const requests = 200
	for i := 1; i <= requests; i++ {
		code, lines := postRun(t, ts.URL, `{"platform":"xeon","alloc":"default","workload":"MediaWiki(ro)","cores":1}`)
		if code != http.StatusOK || len(lines) == 0 || lines[len(lines)-1].Event != "result" || lines[len(lines)-1].Failed {
			t.Fatalf("request %d: status %d, events %+v", i, code, lines)
		}
		if n := s.inflight.Load(); n != 0 {
			t.Fatalf("request %d: inflight %d after its stream ended, want 0", i, n)
		}
		if n := s.finished.Load(); n != uint64(i) {
			t.Fatalf("request %d: finished %d after its stream ended, want %d", i, n, i)
		}
	}
}

// TestServeConfigTimeoutDefaults pins the hardening defaults so a zero
// Config cannot regress to a server without slowloris or stalled-reader
// protection.
func TestServeConfigTimeoutDefaults(t *testing.T) {
	s, err := New(Config{Jobs: 1, Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cfg.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout default = %v, want 10s", s.cfg.ReadHeaderTimeout)
	}
	if s.cfg.IdleTimeout != 120*time.Second {
		t.Errorf("IdleTimeout default = %v, want 120s", s.cfg.IdleTimeout)
	}
	if s.cfg.EventWriteTimeout != 30*time.Second {
		t.Errorf("EventWriteTimeout default = %v, want 30s", s.cfg.EventWriteTimeout)
	}
	if s.cfg.HedgeAfter != 4 {
		t.Errorf("HedgeAfter default = %v, want 4", s.cfg.HedgeAfter)
	}
	if fmt.Sprint(s.cfg.Addr) == "" {
		t.Error("Addr default empty")
	}
}
