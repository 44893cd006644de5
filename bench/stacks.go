package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/daemon"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/shard"
	"nfvmcast/internal/wal"
)

const policy = "Online_CP"

// outcome is what one admission attempt came to. A rejection is a decision
// (admitted false, failed false); failed covers everything that is not one:
// transport errors, 5xx, 429, deadlines, unexpected statuses.
type outcome struct {
	admitted   bool
	failed     bool
	overloaded bool // HTTP 429
	cost       float64
	shard      string
	tree       *multicast.PseudoTree // in-process levels; HTTP levels decode it on demand
	body       []byte                // HTTP levels: the 200 response, valid until the client's next call
}

// stack is one prefix of the system, driven through the same calls at every
// level so a workload's driving pattern is written once. client selects
// per-caller scratch; i indexes the run's stream.
type stack interface {
	admit(client, i int) outcome
	release(client, i int) error
	// checkLive verifies, through the level's own reporting, that exactly
	// want sessions are live — and, where the network is reachable and want
	// is 0, that every residual is back at its capacity.
	checkLive(want int) error
	close() error
}

// env is what building a stack needs besides the workload.
type env struct {
	w       *workload
	st      *stream
	warm    int           // requests of the (scaled) warm-up window
	scratch string        // parent of WAL directories
	rec     *recorder     // nil outside traced passes
	reg     *obs.Registry // attached to engine-level stacks when non-nil
}

// untraced returns a copy of e that records no spans and attaches no
// registry.
func (e *env) untraced() *env { return &env{w: e.w, st: e.st, warm: e.warm, scratch: e.scratch} }

// tracePath is where the traced run dumps its spans.
func (e *env) tracePath() string {
	return filepath.Join(e.scratch, "trace-"+e.w.Name+".jsonl")
}

// walDir creates a fresh WAL directory under the scratch root.
func (e *env) walDir(l level) (string, error) {
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.scratch, fmt.Sprintf("%s-%s-", e.w.Name, l))
}

func newStack(e *env, l level) (stack, error) {
	switch l {
	case levelSolve:
		nw, err := buildNetwork(e.w)
		if err != nil {
			return nil, err
		}
		return &solveStack{env: e, nw: nw}, nil
	case levelCore:
		return newCoreStack(e)
	case levelEngine, levelJournal, levelFsync:
		return newEngineStack(e, l)
	case levelRouter:
		return newRouterStack(e)
	case levelHandler, levelLoopback:
		return newDaemonStack(e, l)
	}
	return nil, fmt.Errorf("no stack for level %d", l)
}

func newPlanner(nw *sdn.Network) (core.Planner, error) {
	return core.NewPlanner(policy, core.PlannerOptions{Nodes: nw.NumNodes()})
}

// checkResiduals reports the first link or server whose residual is not
// back at its capacity. Allocate/release pairs leave float dust, so the
// comparison uses the network's own release tolerance.
func checkResiduals(nw *sdn.Network) error {
	const tol = 1e-6
	for e := 0; e < nw.NumEdges(); e++ {
		if math.Abs(nw.ResidualBandwidth(e)-nw.BandwidthCap(e)) > tol {
			return fmt.Errorf("link %d residual %v != capacity %v", e, nw.ResidualBandwidth(e), nw.BandwidthCap(e))
		}
	}
	for _, v := range nw.Servers() {
		if math.Abs(nw.ResidualCompute(v)-nw.ComputeCap(v)) > tol {
			return fmt.Errorf("server %d residual %v != capacity %v", v, nw.ResidualCompute(v), nw.ComputeCap(v))
		}
	}
	return nil
}

func checkInProcess(live, want int, nws ...*sdn.Network) error {
	if live != want {
		return fmt.Errorf("%d sessions live, want %d", live, want)
	}
	if want != 0 {
		return nil
	}
	for _, nw := range nws {
		if err := checkResiduals(nw); err != nil {
			return err
		}
	}
	return nil
}

// decision maps an admission error to an outcome.
func decision(sol *core.Solution, err error) outcome {
	switch {
	case err == nil:
		return outcome{admitted: true, cost: sol.OperationalCost, tree: sol.Tree}
	case core.IsRejection(err):
		return outcome{}
	default:
		return outcome{failed: true}
	}
}

// solveStack is the offline level: one ApproMulti solve per request on an
// uncapacitated network that never changes.
type solveStack struct {
	*env
	nw *sdn.Network
}

func (s *solveStack) admit(_, i int) outcome {
	return decision(core.ApproMulti(s.nw, s.st.request(i), core.Options{K: 3}))
}
func (s *solveStack) release(_, _ int) error { return nil }
func (s *solveStack) checkLive(int) error    { return checkResiduals(s.nw) }
func (s *solveStack) close() error           { return nil }

// coreStack drives core.Admitter directly: plan, commit and depart on a
// bare network, no engine around them.
type coreStack struct {
	*env
	nw    *sdn.Network
	adm   *core.Admitter
	arena *core.PlanArena
}

func newCoreStack(e *env) (*coreStack, error) {
	nw, err := buildNetwork(e.w)
	if err != nil {
		return nil, err
	}
	planner, err := newPlanner(nw)
	if err != nil {
		return nil, err
	}
	return &coreStack{env: e, nw: nw, adm: core.NewAdmitter(nw, planner), arena: core.NewPlanArena()}, nil
}

func (s *coreStack) admit(_, i int) outcome {
	req := s.st.request(i)
	t0 := time.Now()
	sol, err := s.adm.PlanOnWith(s.nw, req, s.arena)
	t1 := time.Now()
	s.rec.add(levelCore, "plan", req.ID, t0, t1, err != nil)
	if err != nil {
		s.adm.CountRejection(req, err)
		return decision(nil, err)
	}
	sol, err = s.adm.Commit(req, sol)
	s.rec.add(levelCore, "commit", req.ID, t1, time.Now(), false)
	if err != nil {
		err = fmt.Errorf("%w: %w", core.ErrRejected, err)
		s.adm.CountRejection(req, err)
	}
	return decision(sol, err)
}

func (s *coreStack) release(_, i int) error {
	_, err := s.adm.Depart(i + 1)
	return err
}
func (s *coreStack) checkLive(want int) error {
	return checkInProcess(s.adm.LiveCount(), want, s.nw)
}
func (s *coreStack) close() error { return nil }

// engineStack is one engine.Engine, optionally journaled to a WAL. For the
// daemon workloads it carries the options the daemon gives a shard's
// engine (recovery policy, registry-backed obs).
type engineStack struct {
	*env
	nw  *sdn.Network
	eng *engine.Engine
	log *wal.Log
}

// engineOptions are the options of the workload's engines below the router.
func (e *env) engineOptions() engine.Options {
	opts := engine.Options{Workers: e.w.Workers}
	reg := e.reg
	if e.w.isDaemon() {
		pol := recov.DefaultPolicy()
		opts.Recovery = &pol
		if reg == nil {
			reg = obs.NewRegistry()
		}
	}
	if reg != nil {
		opts.Obs = obs.NewAdmissionObs(reg, policy, obs.AdmissionObsOptions{})
	}
	return opts
}

func newEngineStack(e *env, l level) (*engineStack, error) {
	nw, err := buildNetwork(e.w)
	if err != nil {
		return nil, err
	}
	planner, err := newPlanner(nw)
	if err != nil {
		return nil, err
	}
	s := &engineStack{env: e, nw: nw}
	opts := e.engineOptions()
	if l != levelEngine {
		dir, err := e.walDir(l)
		if err != nil {
			return nil, err
		}
		// SnapshotEvery < 0: snapshots are the daemon's upkeep, not the journal's.
		s.log, err = wal.Open(dir, wal.Options{NoSync: l == levelJournal, SnapshotEvery: -1})
		if err != nil {
			return nil, err
		}
		opts.Journal = s.log.Journal()
	}
	s.eng = engine.New(nw, planner, opts)
	return s, nil
}

func (s *engineStack) admit(_, i int) outcome { return decision(s.eng.Admit(s.st.request(i))) }
func (s *engineStack) release(_, i int) error {
	_, err := s.eng.Depart(i + 1)
	return err
}
func (s *engineStack) checkLive(want int) error {
	return checkInProcess(s.eng.LiveCount(), want, s.nw)
}
func (s *engineStack) close() error {
	s.eng.Close()
	if s.log == nil {
		return nil
	}
	dir := s.log.Dir()
	err := s.log.Close()
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}

// routerStack is a shard.Router built the way daemon.New builds its own.
type routerStack struct {
	*env
	router *shard.Router
	logs   []*wal.Log
	dir    string
}

func shardIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
	}
	return ids
}

func newRouterStack(e *env) (*routerStack, error) {
	s := &routerStack{env: e}
	pol := recov.DefaultPolicy()
	opts := shard.Options{
		Shards: shardIDs(e.w.Shards),
		Build: func(string) (*sdn.Network, core.Planner, error) {
			nw, err := buildNetwork(e.w)
			if err != nil {
				return nil, nil, err
			}
			planner, err := newPlanner(nw)
			return nw, planner, err
		},
		Workers:  e.w.Workers,
		Recovery: &pol,
		Registry: obs.NewRegistry(),
	}
	var err error
	if e.w.Durable {
		if s.dir, err = e.walDir(levelRouter); err != nil {
			return nil, err
		}
		opts.Journal = func(id string) (engine.Journal, error) {
			l, err := wal.Open(filepath.Join(s.dir, "shard-"+id), wal.Options{SnapshotEvery: -1})
			if err != nil {
				return nil, err
			}
			s.logs = append(s.logs, l)
			return l.Journal(), nil
		}
	}
	if s.router, err = shard.New(opts); err != nil {
		_ = s.close()
		return nil, err
	}
	return s, nil
}

func (s *routerStack) admit(_, i int) outcome {
	return decision(s.router.AdmitContext(context.Background(), s.st.tenant(i), s.st.request(i)))
}
func (s *routerStack) release(_, i int) error {
	_, err := s.router.Release(i + 1)
	return err
}
func (s *routerStack) checkLive(want int) error {
	var nws []*sdn.Network
	for _, id := range s.router.ShardIDs() {
		nws = append(nws, s.router.Network(id))
	}
	return checkInProcess(s.router.Report().Live, want, nws...)
}
func (s *routerStack) close() error {
	if s.router != nil {
		s.router.Close()
	}
	var err error
	for _, l := range s.logs {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// daemonStack is a booted daemon.Server, called either through its handler
// in process or over a real loopback TCP socket with keep-alive
// connections, one per client.
type daemonStack struct {
	*env
	cfg    daemon.Config
	srv    *daemon.Server
	base   string       // "http://127.0.0.1:port", loopback only
	client *http.Client // loopback only
	served chan error   // Serve's return, loopback only
	bufs   []bytes.Buffer
	h      http.Handler
}

func (e *env) daemonConfig(walDir string) daemon.Config {
	return daemon.Config{
		Topology: e.w.Topology, Nodes: e.w.Nodes, Seed: topoSeed,
		Policy: policy, Shards: e.w.Shards, Workers: e.w.Workers, WALDir: walDir,
	}
}

func newDaemonStack(e *env, l level) (*daemonStack, error) {
	s := &daemonStack{env: e, bufs: make([]bytes.Buffer, e.w.Clients)}
	walDir := ""
	var err error
	if e.w.Durable {
		if walDir, err = e.walDir(l); err != nil {
			return nil, err
		}
	}
	s.cfg = e.daemonConfig(walDir)
	if s.srv, err = daemon.New(s.cfg); err != nil {
		return nil, err
	}
	s.h = s.srv.Handler()
	if l == levelHandler {
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: e.w.Clients, MaxIdleConnsPerHost: e.w.Clients},
	}
	// One answered request proves Serve is up. Server.Shutdown only stops a
	// listener Serve has already registered, so closing a stack nobody has
	// called yet would otherwise leave Serve running forever.
	if status, _, err := s.call(0, http.MethodGet, "/healthz", nil); err != nil || status != http.StatusOK {
		_ = s.close()
		return nil, fmt.Errorf("daemon on %s is not serving: HTTP %d, %v", s.base, status, err)
	}
	return s, nil
}

// call sends one request and returns the status with the body read into
// the client's buffer.
func (s *daemonStack) call(client int, method, path string, body []byte) (int, []byte, error) {
	buf := &s.bufs[client]
	buf.Reset()
	if s.client == nil {
		rec := httptest.NewRecorder()
		rec.Body = buf
		s.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, buf.Bytes(), nil
	}
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, buf.Bytes(), err
}

func (s *daemonStack) admit(client, i int) outcome {
	status, body, err := s.call(client, http.MethodPost, "/v1/submit", s.st.submit[i])
	switch {
	case err != nil:
		return outcome{failed: true}
	case status == http.StatusOK:
		return outcome{admitted: true, body: body}
	case status == http.StatusConflict:
		return outcome{}
	default:
		return outcome{failed: true, overloaded: status == http.StatusTooManyRequests}
	}
}

func (s *daemonStack) release(client, i int) error {
	status, body, err := s.call(client, http.MethodPost, "/v1/release", s.st.release[i])
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("release %d: HTTP %d: %s", i+1, status, body)
	}
	return nil
}

// get fetches a JSON document from the daemon's read surface.
func (s *daemonStack) get(path string, v any) error {
	status, body, err := s.call(0, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, status)
	}
	return json.Unmarshal(body, v)
}

func (s *daemonStack) checkLive(want int) error {
	var rep daemon.ReportResponse
	if err := s.get("/v1/report", &rep); err != nil {
		return err
	}
	if r := rep.Report; r.Live != want || r.Admitted-r.Departed != want {
		return fmt.Errorf("/v1/report: live %d, admitted %d, departed %d; want %d live", r.Live, r.Admitted, r.Departed, want)
	}
	return nil
}

// counters scrapes /metrics.json and sums every series of each family.
func (s *daemonStack) counters() (map[string]float64, error) {
	var doc struct {
		Counters []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"counters"`
	}
	if err := s.get("/metrics.json", &doc); err != nil {
		return nil, err
	}
	sums := make(map[string]float64)
	for _, c := range doc.Counters {
		sums[c.Name] += c.Value
	}
	return sums, nil
}

func (s *daemonStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if s.served != nil {
		if serr := <-s.served; err == nil {
			err = serr
		}
		s.client.CloseIdleConnections()
	}
	if s.cfg.WALDir != "" {
		if rerr := os.RemoveAll(s.cfg.WALDir); err == nil {
			err = rerr
		}
	}
	return err
}

// settle fills in what the timed call left undecoded. For an HTTP level it
// reads the cost and shard out of the response by scanning for the two
// fields — a full decode of every response would put the load generator's
// JSON cost on the cores the daemon is using — and decodes the whole tree
// only when keep asks for delivery evidence.
func settle(o *outcome, req *multicast.Request, keep bool) error {
	if o.body == nil {
		return nil
	}
	var err error
	if o.cost, err = scanNumber(o.body, `"op_cost": `); err != nil {
		return err
	}
	o.shard = scanString(o.body, `"shard": "`)
	if keep {
		var resp daemon.SubmitResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return fmt.Errorf("submit response: %w", err)
		}
		if resp.Solution == nil || resp.ID != req.ID {
			return fmt.Errorf("submit response for request %d carries id %d, solution %v", req.ID, resp.ID, resp.Solution != nil)
		}
		o.tree = resp.Solution.Decode(req).Tree
	}
	o.body = nil
	return nil
}

func scanNumber(body []byte, key string) (float64, error) {
	at := bytes.Index(body, []byte(key))
	if at < 0 {
		return 0, fmt.Errorf("response has no %s", key)
	}
	rest := body[at+len(key):]
	end := bytes.IndexAny(rest, ",\n}")
	if end < 0 {
		end = len(rest)
	}
	var v float64
	if err := json.Unmarshal(bytes.TrimSpace(rest[:end]), &v); err != nil {
		return 0, fmt.Errorf("%s: %w", key, err)
	}
	return v, nil
}

func scanString(body []byte, key string) string {
	at := bytes.Index(body, []byte(key))
	if at < 0 {
		return ""
	}
	rest := body[at+len(key):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return ""
	}
	return string(rest[:end])
}

// copyDir copies a quiesced WAL directory tree: the crash image.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

var errTmpfs = errors.New("WAL directory is on tmpfs: fsync would be a no-op, refusing to report daemon-durable")
