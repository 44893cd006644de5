package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"nfvmcast/internal/daemon"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/shard"
	"nfvmcast/internal/testutil"
	"nfvmcast/internal/wal"
)

// Daemon mode: the same expanded timeline a scenario runs in-process
// can drive a live nfvmcastd over its HTTP API. The harness stays the
// source of the workload (timeline expansion is a pure function of the
// config, exactly as for in-process runs) while admission, durability
// and recovery happen in the daemon — so one scenario definition
// exercises both the library and the service that wraps it.
//
// The daemon is a target without cells: the executor sees only its
// answers, never its residuals. By construction, then:
//   - resize failure steps and rule budgets are refused up front;
//     state-mutation steps fan out fleet-wide via /v1/apply;
//   - recovery sheds are learned at release time (a 404 counts the
//     session as shed), so the books still close admitted = departed +
//     shed;
//   - ShardReports carries the daemon's own per-shard fingerprints
//     from /v1/report, which the transcript fingerprint folds in.

// RunDaemon drives cfg's timeline against the daemon at baseURL.
// The daemon must be configured with the same substrate the scenario
// names (topology, seed) — node IDs in the expanded timeline address
// that network.
func RunDaemon(cfg *Config, baseURL string) (*Result, error) {
	events, err := timeline(cfg)
	if err != nil {
		return nil, err
	}
	return execute(cfg, events, &daemonTarget{
		base:   baseURL,
		client: &http.Client{Timeout: testutil.Watchdog()},
	})
}

// daemonTarget is the HTTP client side of a daemon deployment.
type daemonTarget struct {
	base   string
	client *http.Client
}

// do sends one request — a POST of in, or a GET when in is nil — and
// decodes a 200 answer into out. Any other status comes back with an
// error; 429 backs off briefly first (the daemon's queue is bounded by
// design).
func (d *daemonTarget) do(path string, in, out any) (int, error) {
	data, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	for attempt := 0; ; attempt++ {
		var resp *http.Response
		if in == nil {
			resp, err = d.client.Get(d.base + path)
		} else {
			resp, err = d.client.Post(d.base+path, "application/json", bytes.NewReader(data))
		}
		if err != nil {
			return 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			return 0, err
		case resp.StatusCode == http.StatusTooManyRequests && attempt < 8:
			time.Sleep(time.Duration(10<<attempt) * time.Millisecond)
			continue
		case resp.StatusCode != http.StatusOK:
			return resp.StatusCode, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
		}
		return resp.StatusCode, json.Unmarshal(body, out)
	}
}

func (d *daemonTarget) admit(tenant string, req *multicast.Request) (admission, error) {
	var sr daemon.SubmitResponse
	status, err := d.do("/v1/submit", daemon.SubmitRequest{Tenant: tenant, Request: wal.EncodeRequest(req)}, &sr)
	if status == http.StatusConflict {
		// The wire carries a rejection's code, not its typed cause.
		return admission{reason: daemon.CodeRejected}, nil
	}
	if err != nil {
		return admission{}, err
	}
	return admission{shard: sr.Shard, sol: sr.Solution.Decode(req)}, nil
}

func (d *daemonTarget) release(reqID int) error {
	status, err := d.do("/v1/release", daemon.ReleaseRequest{ID: reqID}, &daemon.ReleaseResponse{})
	if status == http.StatusNotFound {
		return errShed
	}
	return err
}

// apply sends a state batch fleet-wide; the executor refuses resize
// steps for targets without cells before the run starts.
func (d *daemonTarget) apply(fa *failureAction) ([]int, error) {
	if len(fa.muts) == 0 {
		return nil, nil
	}
	var ar daemon.ApplyResponse
	if _, err := d.do("/v1/apply", daemon.ApplyRequest{All: true, Mutations: wal.EncodeMutations(fa.muts)}, &ar); err != nil {
		return nil, err
	}
	return []int{ar.Applied}, nil
}

func (d *daemonTarget) cells() []*cell   { return nil }
func (d *daemonTarget) owner(int) string { return "" }

func (d *daemonTarget) report() (*shard.Report, error) {
	var rr daemon.ReportResponse
	if _, err := d.do("/v1/report", nil, &rr); err != nil {
		return nil, err
	}
	return &rr.Report, nil
}
