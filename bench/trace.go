package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"nfvmcast/internal/wal"
)

// span is one timed call into a level, recorded by the harness around the
// call (nothing inside the program is instrumented). Spans of one request
// share Req; Parent is the index of the same request's span for the same
// Op one level up, -1 at the top.
type span struct {
	Level    string `json:"level"`
	Op       string `json:"op"`
	Req      int    `json:"req"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Rejected bool   `json:"rejected,omitempty"`
	level    level
}

// recorder keeps spans in memory until the run ends. A nil recorder, or
// one switched off, records nothing, so untraced runs share the traced
// runs' code path. Traced passes run one client, so there is no locking.
type recorder struct {
	epoch time.Time
	on    bool
	spans []span
}

func (r *recorder) add(l level, op string, req int, t0, t1 time.Time, rejected bool) {
	if r == nil || !r.on {
		return
	}
	r.spans = append(r.spans, span{
		Level: l.String(), Op: op, Req: req, Parent: -1, Rejected: rejected, level: l,
		StartNs: int64(t0.Sub(r.epoch)), EndNs: int64(t1.Sub(r.epoch)),
	})
}

// durations returns the sorted durations of the spans matching the filter.
func (r *recorder) durations(l level, op string, keep func(*span) bool) []int64 {
	var out []int64
	for i := range r.spans {
		s := &r.spans[i]
		if s.level == l && s.Op == op && (keep == nil || keep(s)) {
			out = append(out, s.EndNs-s.StartNs)
		}
	}
	slices.Sort(out)
	return out
}

func (r *recorder) p50(l level, op string) float64 {
	return us(percentile(r.durations(l, op, nil), 0.50))
}

// link sets each span's parent: the span of the same request and
// operation one level further up the workload's stack. The core level's
// plan and commit spans hang off that request's core admit span.
func (r *recorder) link(levels []level) {
	type key struct {
		l   level
		op  string
		req int
	}
	at := make(map[key]int, len(r.spans))
	for i := range r.spans {
		s := &r.spans[i]
		at[key{s.level, s.Op, s.Req}] = i
	}
	up := make(map[level]level)
	for i := 0; i+1 < len(levels); i++ {
		up[levels[i]] = levels[i+1]
	}
	for i := range r.spans {
		s := &r.spans[i]
		k := key{s.level, s.Op, s.Req}
		switch s.Op {
		case "plan", "commit":
			k.op = "admit"
		default:
			parent, ok := up[s.level]
			if !ok {
				continue
			}
			k.l = parent
		}
		if p, ok := at[k]; ok {
			s.Parent = p
		}
	}
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(f)
	enc := json.NewEncoder(out)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := out.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// onionChunk is how many consecutive requests one level serves before the
// traced run moves to the next level.
const onionChunk = 32

// onion is the traced run: one client pushes the stream, a chunk of
// requests at a time, through every level of the workload's stack, each
// level a stack of its own (own network, own WAL directory), and through a
// second, untraced top-level stack. Interleaving the levels exposes them
// all to the same disk and scheduler weather; run whole passes one after
// the other and fsync-bound levels differ by more than the layers between
// them cost. A level's self time is its median minus
// the median one level down, so the self times telescope to the top
// level's median by construction. It returns the first check failure.
func onion(e *env, budget time.Duration, m metricSet) error {
	w := e.w
	rec := &recorder{epoch: time.Now()}
	var drivers []*driver
	defer func() {
		for _, d := range drivers {
			_ = d.stack.close()
		}
	}()
	add := func(l level, rec *recorder) error {
		le := e.untraced()
		le.rec = rec
		s, err := newStack(le, l)
		if err != nil {
			return err
		}
		drivers = append(drivers, newDriver(le, s, l, 1))
		return nil
	}
	for _, l := range w.Levels {
		if err := add(l, rec); err != nil {
			return err
		}
	}
	if err := add(w.top(), nil); err != nil {
		return err
	}
	untraced := drivers[len(drivers)-1]

	// chunk pushes requests [from, to) through every stack, one stack after
	// the other, starting with stack first.
	chunk := func(from, to, first int) {
		for k := range drivers {
			d := drivers[(first+k)%len(drivers)]
			for i := from; i < to; i++ {
				d.one(&d.clients[0], i)
			}
		}
	}
	limit := e.st.len()
	warm := e.warm / 4
	if warm > limit {
		warm = limit
	}
	chunk(0, warm, 0) // recorder still off: the warm-up is discarded
	for _, d := range drivers {
		d.warmup(0) // zero the counters, drop the warm-up samples
	}
	rec.on = true
	// Each round rotates which stack goes first, so none always runs after
	// the same neighbour; a chunk is long enough for a stack to be back at
	// its own steady state for most of it.
	n := 0
	deadline := time.Now().Add(budget)
	for round := 0; time.Now().Before(deadline) && warm+n < limit; round++ {
		to := warm + n + onionChunk
		if to > limit {
			to = limit
		}
		chunk(warm+n, to, round)
		n = to - warm
	}
	rec.on = false // the drain is untimed
	if n == 0 {
		return fmt.Errorf("traced run: no request fit in %v", budget)
	}
	for _, d := range drivers {
		d.drain()
		if t := d.total(); t.err != nil {
			return fmt.Errorf("traced run, level %s: %w", d.level, t.err)
		}
		if err := d.stack.checkLive(0); err != nil {
			return fmt.Errorf("traced run, level %s: end state: %w", d.level, err)
		}
		if d.level == levelFsync {
			if err := walProbes(d.stack.(*engineStack), m); err != nil {
				return err
			}
		}
	}
	rec.link(w.Levels)

	below := 0.0
	for _, l := range w.Levels {
		p50 := rec.p50(l, "admit")
		self := p50 - below
		switch l {
		case levelSolve:
			m.set("core.solve_us", p50)
		case levelCore:
			m.set("core.admit_us", p50)
			plans := rec.durations(l, "plan", nil)
			m.set("core.plan_us", us(percentile(plans, 0.50)))
			m.set("core.plan_p99_us", us(percentile(plans, 0.99)))
			m.set("core.commit_us", rec.p50(l, "commit"))
			m.set("core.depart_us", rec.p50(l, "release"))
			if rej := rec.durations(l, "plan", func(s *span) bool { return s.Rejected }); len(rej) > 0 {
				m.set("core.reject_us", us(percentile(rej, 0.50)))
			}
		case levelEngine:
			m.set("engine.admit_us", p50)
			m.set("engine.depart_us", rec.p50(l, "release"))
			m.set("engine.self_us", self)
		case levelJournal:
			m.set("wal.append_self_us", self)
		case levelFsync:
			m.set("wal.fsync_self_us", self)
		case levelRouter:
			m.set("shard.self_us", self)
		case levelHandler:
			m.set("daemon.handler_self_us", self)
		case levelLoopback:
			m.set("daemon.loopback_self_us", self)
		}
		below = p50
	}
	m.set("trace.top_admit_us", below)

	// The untraced twin of the top level: its median is the base of the
	// tracing overhead, its busy time the one-client rate of the workload.
	cl := &untraced.clients[0]
	var busy int64
	for _, ns := range cl.admitNs {
		busy += ns
	}
	for _, ns := range cl.releaseNs {
		busy += ns
	}
	m.set("trace.c1_requests_per_s", float64(n)/(float64(busy)/1e9))
	base := untraced.collect(0)
	p50 := us(percentile(base.admit, 0.50))
	m.set("trace.overhead_share", (below-p50)/p50)

	for _, l := range []level{levelCore, levelEngine} {
		if !slices.Contains(w.Levels, l) {
			continue
		}
		allocs, err := allocsPerRequest(e, l, e.warm/4)
		if err != nil {
			return err
		}
		if l == levelCore {
			m.set("core.allocs_per_plan", allocs)
		} else {
			m.set("engine.allocs_per_req", allocs)
		}
	}

	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return err
	}
	return rec.write(e.tracePath())
}

// allocRequests is how many requests an allocation count is averaged over.
const allocRequests = 512

// allocsPerRequest counts the heap objects one request allocates at level
// l, warm-up excluded, on a stack of its own: ReadMemStats stops the
// world, so it cannot sit inside the interleaved run.
func allocsPerRequest(e *env, l level, warm int) (float64, error) {
	le := e.untraced()
	s, err := newStack(le, l)
	if err != nil {
		return 0, err
	}
	defer s.close()
	d := newDriver(le, s, l, 1)
	d.warmup(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.replay(allocRequests)
	runtime.ReadMemStats(&after)
	d.drain()
	t := d.total()
	if t.err != nil || t.attempted == 0 {
		return 0, fmt.Errorf("allocation pass at level %s: %d requests, %v", l, t.attempted, t.err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(t.attempted), nil
}

// walProbes prices the log directly once the fsync level's pass is over: a
// durable snapshot of its engine, then a cold open and full replay of a
// fresh record chain.
func walProbes(s *engineStack, m metricSet) error {
	var snaps []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := s.log.Snapshot(s.eng); err != nil {
			return err
		}
		snaps = append(snaps, time.Since(t0).Seconds()*1e3)
	}
	m.set("wal.snapshot_ms", median(snaps))

	// Replay needs the record chain from LSN 1, which the snapshots above
	// have garbage-collected; write a fresh chain of the same records.
	clean := s.env.untraced()
	fresh, err := newEngineStack(clean, levelJournal)
	if err != nil {
		return err
	}
	d := newDriver(clean, fresh, levelJournal, 1)
	d.replay(recoverRecords / 2)
	d.drain()
	records := fresh.log.LastLSN()
	dir := fresh.log.Dir()
	fresh.eng.Close()
	if err := fresh.log.Close(); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	target, err := newEngineStack(clean, levelEngine)
	if err != nil {
		return err
	}
	defer target.close()
	t0 := time.Now()
	log, err := wal.Open(dir, wal.Options{NoSync: true, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	defer log.Close()
	stats, err := log.Recover(target.eng)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	if uint64(stats.Records) != records {
		return fmt.Errorf("wal replay: %d records replayed, %d written", stats.Records, records)
	}
	m.set("wal.recover_us_per_record", float64(elapsed.Microseconds())/float64(stats.Records))
	return nil
}

// recoverRecords is the length of the record chain wal.recover_us_per_record
// replays (an admit and a depart per request).
const recoverRecords = 1000
