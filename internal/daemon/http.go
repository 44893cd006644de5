package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/shard"
	"nfvmcast/internal/wal"
)

// The wire vocabulary is the WAL record schema (wal.RequestRecord,
// wal.SolutionRecord, wal.MutationRecord): what the daemon serves is
// exactly what it logs and replays. Errors are a JSON envelope with a
// stable machine-readable code.

// SubmitRequest asks for admission of one request on behalf of a
// tenant.
type SubmitRequest struct {
	Tenant  string             `json:"tenant"`
	Request *wal.RequestRecord `json:"request"`
}

// SubmitResponse acknowledges a durable admission.
type SubmitResponse struct {
	ID       int                 `json:"id"`
	Shard    string              `json:"shard"`
	Solution *wal.SolutionRecord `json:"solution"`
}

// ReleaseRequest ends a session by request ID.
type ReleaseRequest struct {
	ID int `json:"id"`
}

// ReleaseResponse returns the released session's last solution.
type ReleaseResponse struct {
	ID       int                 `json:"id"`
	Solution *wal.SolutionRecord `json:"solution"`
}

// ApplyRequest applies a maintenance batch. Exactly one of Tenant,
// Shard, or All selects the scope.
type ApplyRequest struct {
	Tenant    string               `json:"tenant,omitempty"`
	Shard     string               `json:"shard,omitempty"`
	All       bool                 `json:"all,omitempty"`
	Mutations []wal.MutationRecord `json:"mutations"`
}

// ApplyResponse acknowledges a durable maintenance batch.
type ApplyResponse struct {
	Applied int `json:"applied"`
}

// ReportResponse is the fleet report plus daemon-level durability
// state.
type ReportResponse struct {
	Report shard.Report  `json:"report"`
	WAL    []WALReport   `json:"wal,omitempty"`
	Boot   []BootStats   `json:"boot,omitempty"`
	Uptime time.Duration `json:"-"`
}

// WALReport is one shard's log position.
type WALReport struct {
	Shard   string `json:"shard"`
	LastLSN uint64 `json:"lastLSN"`
}

// ErrorResponse is the JSON envelope for every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Machine-readable error codes (ErrorResponse.Code).
const (
	CodeMalformed      = "malformed"
	CodeRejected       = "rejected"
	CodeDurability     = "durability"
	CodeDeadline       = "deadline"
	CodeOverloaded     = "overloaded"
	CodeDraining       = "draining"
	CodeUnknownSession = "unknown_session"
	CodeUnknownShard   = "unknown_shard"
	CodeInternal       = "internal"
)

// maxBodyBytes bounds a request body; the largest legitimate one, an
// /v1/apply batch, is far below it.
const maxBodyBytes = 8 << 20

// writeJSON is every answer's one write path: v is encoded into a pooled
// buffer first, so a value that cannot be encoded (a NaN or an Inf) is
// answered 500 with the internal envelope, never as an empty success,
// and the answer goes out in one Write framed by Content-Length.
func writeJSON(w http.ResponseWriter, status int, v any) {
	bp := answerPool.Get().(*[]byte)
	b, err := appendAnswer((*bp)[:0], v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = appendAnswer(b[:0], ErrorResponse{Error: "encode response: " + err.Error(), Code: CodeInternal})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b) // a failed write means the client has gone
	if cap(b) <= maxPooledAnswer {
		*bp = b
		answerPool.Put(bp)
	}
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

// writeAdmitError maps an admission/maintenance error to its status.
func writeAdmitError(w http.ResponseWriter, err error) {
	var malformed *engine.MalformedMutationError
	switch {
	case core.IsRejection(err):
		// A policy rejection is a well-formed answer, not a fault: the
		// substrate cannot hold the request under the admission policy.
		writeError(w, http.StatusConflict, CodeRejected, err.Error())
	case errors.Is(err, engine.ErrDurability):
		writeError(w, http.StatusServiceUnavailable, CodeDurability, err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout, CodeDeadline, err.Error())
	case errors.Is(err, shard.ErrUnknownSession):
		writeError(w, http.StatusNotFound, CodeUnknownSession, err.Error())
	case errors.Is(err, shard.ErrUnknownShard):
		writeError(w, http.StatusNotFound, CodeUnknownShard, err.Error())
	case errors.As(err, &malformed):
		writeError(w, http.StatusBadRequest, CodeMalformed, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// decodeBody strictly decodes the request body into v: one JSON value
// with no unknown fields, followed by nothing but whitespace, in at
// most maxBodyBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		switch _, err = dec.Token(); err {
		case io.EOF:
			return true
		case nil:
			err = errors.New("trailing data after the JSON value")
		}
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, CodeMalformed, "body: "+err.Error())
	return false
}

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/submit   admission (bounded queue, per-request deadline)
//	POST /v1/release  session departure
//	POST /v1/apply    maintenance batch (tenant / shard / fleet scope)
//	GET  /v1/report   fleet report + WAL positions
//	GET  /healthz     200 ok, or 503 naming each shard whose WAL failed
//
// plus the observability surface of internal/obs (/metrics,
// /metrics.json, /debug/pprof/).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/submit", s.handleSubmit)
	mux.HandleFunc("/v1/release", s.handleRelease)
	mux.HandleFunc("/v1/apply", s.handleApply)
	mux.HandleFunc("/v1/report", s.handleReport)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.Handle("/", obs.Handler(func() *obs.Registry { return s.registry }, nil))
	return mux
}

// handleHealth answers 200 "ok" while every shard's write-ahead log
// takes appends, and 503 naming each shard whose log holds a sticky
// append or sync failure (wal.Log.Err): that shard's durable operations
// fail with engine.ErrDurability until the daemon restarts.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	var failed []string
	for _, id := range shardIDs(s.cfg.Shards) {
		if l, ok := s.logs[id]; ok {
			if err := l.Err(); err != nil {
				failed = append(failed, "shard "+id+": "+err.Error())
			}
		}
	}
	if len(failed) > 0 {
		http.Error(w, strings.Join(failed, "\n"), http.StatusServiceUnavailable)
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}

// acquire takes an admission slot without blocking. A full queue is
// backpressure: the caller is told to retry, not parked on the socket.
func (s *Server) acquire(w http.ResponseWriter) bool {
	select {
	case <-s.draining:
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "daemon is draining")
		return false
	default:
	}
	select {
	case s.queue <- struct{}{}:
		return true
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, CodeOverloaded,
			"admission queue full")
		return false
	}
}

func (s *Server) release() { <-s.queue }

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, CodeMalformed, "POST only")
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	var body SubmitRequest
	if !decodeBody(w, r, &body) {
		return
	}
	if body.Request == nil {
		writeError(w, http.StatusBadRequest, CodeMalformed, "missing request payload")
		return
	}
	req, err := body.Request.Decode()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeMalformed, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	sol, err := s.router.AdmitContext(ctx, body.Tenant, req)
	if err != nil {
		// Prefer the deadline verdict when the context expired mid-plan:
		// some engine paths wrap the cause beyond errors.Is reach.
		if ctx.Err() != nil && !core.IsRejection(err) {
			writeError(w, http.StatusGatewayTimeout, CodeDeadline, ctx.Err().Error())
			return
		}
		writeAdmitError(w, err)
		return
	}
	s.kickUpkeep()
	shardID, _ := s.router.ShardFor(body.Tenant)
	writeJSON(w, http.StatusOK, SubmitResponse{
		ID:       req.ID,
		Shard:    shardID,
		Solution: wal.EncodeSolution(sol),
	})
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var body ReleaseRequest
	if !decodeBody(w, r, &body) {
		return
	}
	sol, err := s.router.Release(body.ID)
	if err != nil {
		writeAdmitError(w, err)
		return
	}
	s.kickUpkeep()
	writeJSON(w, http.StatusOK, ReleaseResponse{
		ID:       body.ID,
		Solution: wal.EncodeSolution(sol),
	})
}

func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var body ApplyRequest
	if !decodeBody(w, r, &body) {
		return
	}
	scopes := 0
	if body.Tenant != "" {
		scopes++
	}
	if body.Shard != "" {
		scopes++
	}
	if body.All {
		scopes++
	}
	if scopes != 1 {
		writeError(w, http.StatusBadRequest, CodeMalformed,
			"exactly one of tenant, shard, all must select the scope")
		return
	}
	if len(body.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, CodeMalformed, "empty mutation batch")
		return
	}
	muts, err := wal.DecodeMutations(body.Mutations)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeMalformed, err.Error())
		return
	}
	switch {
	case body.Tenant != "":
		err = s.router.Apply(body.Tenant, muts...)
	case body.Shard != "":
		err = s.router.ApplyShard(body.Shard, muts...)
	default:
		err = s.router.ApplyAll(muts...)
	}
	if err != nil {
		writeAdmitError(w, err)
		return
	}
	s.kickUpkeep()
	writeJSON(w, http.StatusOK, ApplyResponse{Applied: len(muts)})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, CodeMalformed, "GET only")
		return
	}
	resp := ReportResponse{Report: s.router.Report(), Boot: s.boot}
	for _, id := range shardIDs(s.cfg.Shards) {
		if l, ok := s.logs[id]; ok {
			resp.WAL = append(resp.WAL, WALReport{Shard: id, LastLSN: l.LastLSN()})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
