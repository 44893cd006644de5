package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/testutil"
	"nfvmcast/internal/topology"
)

var update = flag.Bool("update", false, "rewrite golden files")

// startServer boots a daemon on a random localhost port and returns
// its base URL. Cleanup drains it.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, "http://" + ln.Addr().String()
}

func doJSON(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(testutil.Context(t), method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// testRequest renders a deterministic admissible request as wire JSON.
func submitBody(tenant string, id int) string {
	return fmt.Sprintf(`{"tenant":%q,"request":{"id":%d,"source":3,"dests":[7,12,19],"bw":40,"chain":["NAT","Firewall"]}}`,
		tenant, id)
}

// TestConformanceGolden drives the full API over a real listener and
// pins every exchange — method, path, request body, status, salient
// headers, response body — against a golden transcript. The daemon is
// fully deterministic (fixed seed, SP policy, serial requests), so the
// transcript is byte-stable; regenerate with -update.
func TestConformanceGolden(t *testing.T) {
	_, base := startServer(t, Config{
		Topology: "geant",
		Seed:     42,
		Policy:   "SP",
		Shards:   2,
		WALDir:   filepath.Join(t.TempDir(), "wal"),
		NoSync:   true,
	})

	type exchange struct {
		method, path, body string
	}
	script := []exchange{
		{"POST", "/v1/submit", submitBody("acme", 1)},
		{"POST", "/v1/submit", submitBody("globex", 2)},
		{"POST", "/v1/apply", `{"shard":"s0","mutations":[{"kind":"link-state","id":4,"up":false}]}`},
		{"POST", "/v1/apply", `{"all":true,"mutations":[{"kind":"link-capacity","id":2,"cap":20000}]}`},
		{"POST", "/v1/release", `{"id":1}`},
		{"GET", "/v1/report", ""},
		// Error surface: malformed body, unknown fields, missing payload,
		// unknown session, bad scope, bad mutation kind, wrong method.
		{"POST", "/v1/submit", `{"tenant": "acme", "request": nope}`},
		{"POST", "/v1/submit", `{"tenant":"acme","bogus":1}`},
		{"POST", "/v1/submit", `{"tenant":"acme"}`},
		{"POST", "/v1/release", `{"id":999}`},
		{"POST", "/v1/apply", `{"mutations":[{"kind":"link-state","id":0,"up":true}]}`},
		{"POST", "/v1/apply", `{"shard":"s0","mutations":[{"kind":"warp_core","id":0}]}`},
		{"POST", "/v1/apply", `{"shard":"s9","mutations":[{"kind":"link-state","id":0,"up":true}]}`},
		{"GET", "/v1/submit", ""},
		{"POST", "/v1/report", ""},
	}

	var transcript bytes.Buffer
	for _, ex := range script {
		resp, data := doJSON(t, ex.method, base+ex.path, ex.body)
		fmt.Fprintf(&transcript, ">>> %s %s\n", ex.method, ex.path)
		if ex.body != "" {
			fmt.Fprintf(&transcript, "%s\n", ex.body)
		}
		fmt.Fprintf(&transcript, "<<< %d\n", resp.StatusCode)
		for _, h := range []string{"Content-Type", "Retry-After", "Allow"} {
			if v := resp.Header.Get(h); v != "" {
				fmt.Fprintf(&transcript, "%s: %s\n", h, v)
			}
		}
		transcript.Write(data)
		transcript.WriteString("\n")
	}

	golden := filepath.Join("testdata", "conformance.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, transcript.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden transcript missing (run with -update): %v", err)
	}
	if !bytes.Equal(transcript.Bytes(), want) {
		t.Fatalf("transcript diverged from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, transcript.Bytes(), want)
	}
}

// blockingPlanner parks every plan until its context expires — the
// deterministic way to hold an admission slot or trip a deadline.
type blockingPlanner struct {
	entered chan struct{} // one tick per plan that started
	release chan struct{} // closed to let plans fail fast
}

func (p *blockingPlanner) Name() string { return "blocking" }

func (p *blockingPlanner) Plan(ctx context.Context, nw *sdn.Network, req *multicast.Request, _ *core.PlanArena) (*core.Solution, error) {
	select {
	case p.entered <- struct{}{}:
	default:
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.release:
		return nil, fmt.Errorf("blocking planner released")
	}
}

func blockingConfig(p *blockingPlanner, queueDepth int, timeout time.Duration) Config {
	return Config{
		Topology:       "geant",
		Seed:           42,
		Shards:         1,
		QueueDepth:     queueDepth,
		RequestTimeout: timeout,
		testBuild: func(id string) (*sdn.Network, core.Planner, error) {
			topo := topology.GEANT()
			nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(42)))
			return nw, p, err
		},
	}
}

// TestSubmitDeadline: a plan that outlives the server-side deadline
// answers 504 with the deadline code — not 409, not a hang.
func TestSubmitDeadline(t *testing.T) {
	p := &blockingPlanner{entered: make(chan struct{}, 8), release: make(chan struct{})}
	defer close(p.release)
	_, base := startServer(t, blockingConfig(p, 4, 100*time.Millisecond))

	resp, data := doJSON(t, "POST", base+"/v1/submit", submitBody("acme", 1))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeDeadline {
		t.Fatalf("code = %q, want %q", e.Code, CodeDeadline)
	}
}

// TestSubmitBackpressure: with the admission queue full, submit
// answers 429 + Retry-After immediately instead of queueing without
// bound.
func TestSubmitBackpressure(t *testing.T) {
	p := &blockingPlanner{entered: make(chan struct{}, 8), release: make(chan struct{})}
	_, base := startServer(t, blockingConfig(p, 1, 5*time.Second))

	// Fill the single slot with a request parked in planning. Plain
	// http.Post: the goroutine may outlive the assertion phase and must
	// not touch t.
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		resp, err := http.Post(base+"/v1/submit", "application/json",
			strings.NewReader(submitBody("acme", 1)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-p.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first submission never reached the planner")
	}

	resp, data := doJSON(t, "POST", base+"/v1/submit", submitBody("acme", 2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeOverloaded {
		t.Fatalf("code = %q, want %q", e.Code, CodeOverloaded)
	}
	close(p.release)
	<-parked
}

// TestDrainingRefusesSubmit: once Shutdown has begun, new submissions
// get the draining verdict (handler-level; the listener closes
// separately).
func TestDrainingRefusesSubmit(t *testing.T) {
	srv, err := New(Config{Topology: "geant", Seed: 42, Policy: "SP"})
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", "/v1/submit", strings.NewReader(submitBody("acme", 1)))
	rec := newRecorder()
	handler.ServeHTTP(rec, req)
	if rec.status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.status)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeDraining {
		t.Fatalf("code = %q, want %q", e.Code, CodeDraining)
	}
}

// recorder is a minimal ResponseWriter (avoids httptest to keep the
// hot path identical to the real mux handlers).
type recorder struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func newRecorder() *recorder { return &recorder{header: make(http.Header), status: 200} }

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *recorder) WriteHeader(code int)        { r.status = code }

// TestRestartRecoversSessions: sessions admitted over HTTP survive a
// daemon restart — the second boot replays the WAL, re-adopts the
// sessions, and serves their release.
func TestRestartRecoversSessions(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	cfg := Config{
		Topology: "geant", Seed: 7, Policy: "SP", Shards: 2,
		WALDir: walDir, NoSync: true,
	}

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for i := 1; i <= 5; i++ {
		resp, data := doJSON(t, "POST", base+"/v1/submit", submitBody(fmt.Sprintf("tenant-%d", i%3), i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, data)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Second life: boot from the same WAL, then release a recovered
	// session over the API.
	srv2, base2 := startServer(t, cfg)
	var adopted int
	for _, b := range srv2.Boot() {
		adopted += b.Adopted
	}
	if adopted != 5 {
		t.Fatalf("recovered %d sessions, want 5 (boot %+v)", adopted, srv2.Boot())
	}
	resp, data := doJSON(t, "POST", base2+"/v1/release", `{"id":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release recovered session: %d %s", resp.StatusCode, data)
	}
	// Manifest guard: a different substrate must be refused.
	bad := cfg
	bad.Seed = 8
	if _, err := New(bad); err == nil {
		t.Fatal("boot with mismatched seed over an existing WAL dir succeeded")
	}
}

// TestMetricsSurface: the obs endpoints ride along on the daemon mux.
func TestMetricsSurface(t *testing.T) {
	_, base := startServer(t, Config{Topology: "geant", Seed: 42, Policy: "SP"})
	for _, path := range []string{"/healthz", "/metrics", "/metrics.json"} {
		resp, data := doJSON(t, "GET", base+path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, data)
		}
	}
}

// TestHealthzReportsFailedWAL: /healthz answers 200 while the shard's
// log takes appends and 503 naming the shard once the log holds a
// sticky failure, the state in which its durable acks fail with
// engine.ErrDurability.
func TestHealthzReportsFailedWAL(t *testing.T) {
	srv, err := New(Config{
		Topology: "geant", Seed: 42, Policy: "SP",
		WALDir: filepath.Join(t.TempDir(), "wal"), NoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The failed log also fails the final snapshot, so Shutdown's error
	// is expected.
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	h := srv.Handler()
	if rec := serveDirect(h, "GET", "/healthz", ""); rec.status != http.StatusOK {
		t.Fatalf("healthy daemon: /healthz %d %s", rec.status, rec.body.Bytes())
	}
	if err := srv.logs["s0"].Close(); err != nil {
		t.Fatal(err)
	}
	if rec := serveDirect(h, "POST", "/v1/submit", submitBody("acme", 1)); rec.status == http.StatusOK {
		t.Fatalf("submit acked on a closed log: %s", rec.body.Bytes())
	}
	rec := serveDirect(h, "GET", "/healthz", "")
	if rec.status != http.StatusServiceUnavailable || !strings.Contains(rec.body.String(), "shard s0") {
		t.Fatalf("failed WAL: /healthz %d %q, want 503 naming shard s0", rec.status, rec.body.Bytes())
	}
}

// TestMetricsSampleLatency: one submit puts one sample into the plan
// latency histogram /metrics serves.
func TestMetricsSampleLatency(t *testing.T) {
	_, base := startServer(t, Config{Topology: "geant", Seed: 42, Policy: "SP"})
	if resp, data := doJSON(t, "POST", base+"/v1/submit", submitBody("acme", 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	_, data := doJSON(t, "GET", base+"/metrics", "")
	count := 0.0
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "nfv_plan_seconds_count") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		count += v
	}
	if count < 1 {
		t.Fatalf("nfv_plan_seconds_count = %v after one submit, want >= 1", count)
	}
}

// TestShutdownRacingServe: Shutdown may run before Serve has registered
// its http.Server, find nothing to stop, and return — Serve must notice
// the drain itself, or it accepts forever. Both orders and the true
// race are driven; every Serve must return nil with its listener closed.
func TestShutdownRacingServe(t *testing.T) {
	deadline := testutil.WatchdogFor(t)
	for round := 0; round < 30; round++ {
		srv, err := New(Config{Topology: "geant", Seed: 42, Policy: "SP"})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		shut := make(chan error, 1)
		serve := func() { served <- srv.Serve(ln) }
		shutdown := func() { shut <- srv.Shutdown(testutil.Context(t)) }
		switch round % 3 {
		case 0: // Shutdown strictly first: the order that used to hang
			shutdown()
			go serve()
		case 1: // both at once
			go shutdown()
			go serve()
		case 2: // Serve gets a head start
			go serve()
			runtime.Gosched()
			go shutdown()
		}
		for _, ch := range []chan error{shut, served} {
			select {
			case err := <-ch:
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			case <-time.After(deadline):
				t.Fatalf("round %d: Serve or Shutdown still running %v after the drain began", round, deadline)
			}
		}
		if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
			conn.Close()
			t.Fatalf("round %d: listener still accepting after Serve returned", round)
		}
	}
}

// serveDirect runs one request through the handler without a listener.
func serveDirect(h http.Handler, method, path, body string) *recorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := newRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// inMemoryHandler boots a daemon without a WAL and returns its handler;
// cleanup drains it.
func inMemoryHandler(t *testing.T) http.Handler {
	t.Helper()
	srv, err := New(Config{Topology: "geant", Seed: 42, Policy: "SP"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv.Handler()
}

func wantError(t *testing.T, rec *recorder, status int, code string) {
	t.Helper()
	if rec.status != status {
		t.Fatalf("status = %d, want %d (body %s)", rec.status, status, rec.body.Bytes())
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != code {
		t.Fatalf("code = %q, want %q", e.Code, code)
	}
}

// TestBodyTrailingData: a body is one JSON value. A second value after
// it is refused whole — releasing session 1 and dropping the second
// value would act on half a request — while trailing whitespace passes.
func TestBodyTrailingData(t *testing.T) {
	h := inMemoryHandler(t)
	if rec := serveDirect(h, "POST", "/v1/submit", submitBody("acme", 1)+" \n\t"); rec.status != http.StatusOK {
		t.Fatalf("submit with trailing whitespace: %d %s", rec.status, rec.body.Bytes())
	}
	for _, body := range []string{`{"id":1}{"id":2}`, `{"id":1} 5`, `{"id":1}]`, `{"id":1}x`} {
		wantError(t, serveDirect(h, "POST", "/v1/release", body), http.StatusBadRequest, CodeMalformed)
	}
	if rec := serveDirect(h, "POST", "/v1/release", `{"id":1}`); rec.status != http.StatusOK {
		t.Fatalf("session 1 did not survive the refused bodies: %d %s", rec.status, rec.body.Bytes())
	}
}

// TestBodyTooLarge: a body over maxBodyBytes is answered 413 without
// being decoded.
func TestBodyTooLarge(t *testing.T) {
	h := inMemoryHandler(t)
	mut := `{"kind":"link-state","id":0,"up":true},`
	body := `{"shard":"s0","mutations":[` + strings.Repeat(mut, maxBodyBytes/len(mut)+1) + mut[:len(mut)-1] + `]}`
	wantError(t, serveDirect(h, "POST", "/v1/apply", body), http.StatusRequestEntityTooLarge, CodeMalformed)
}

// TestLargeAnswerHasContentLength: an answer over net/http's 2 KiB
// chunking threshold still goes out framed by Content-Length.
func TestLargeAnswerHasContentLength(t *testing.T) {
	_, base := startServer(t, Config{Topology: "geant", Seed: 42, Policy: "SP"})
	body := `{"tenant":"acme","request":{"id":1,"source":3,"dests":[0,1,2,4,5,7,9,12,14,16,19,21,24,27,30,33,36,39],"bw":10,"chain":["NAT"]}}`
	resp, data := doJSON(t, "POST", base+"/v1/submit", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	if len(data) <= 2048 {
		t.Fatalf("answer is %d bytes; the test needs one over 2 KiB", len(data))
	}
	if resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte answer", resp.ContentLength, resp.TransferEncoding, len(data))
	}
}
