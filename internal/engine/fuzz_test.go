package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/nfv"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
)

// Public-surface fuzzing: arbitrary bytes are decoded into sequences
// of Admit/Depart calls (FuzzEngineAdmit) and typed mutation batches
// (FuzzEngineUpdate), and the harness asserts the properties a caller
// is entitled to regardless of input garbage:
//
//   - the writer never panics and never wedges (every call returns
//     within a watchdog budget, including Close);
//   - malformed input is rejected with the typed error and provably
//     zero state change;
//   - whatever the interleaving, the live table stays consistent with
//     the network's residual capacities.
//
// Request IDs are harness-assigned (monotonic), matching the
// documented caller contract — IDs come from a workload generator, and
// reusing a live ID is a caller bug, not an input the engine defends.

// fuzzReader drains the fuzz input; exhausted reads return zero so any
// prefix decodes.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) done() bool { return r.pos >= len(r.data) }

func (r *fuzzReader) byte() byte {
	if r.done() {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *fuzzReader) u16() uint16 {
	return uint16(r.byte()) | uint16(r.byte())<<8
}

func (r *fuzzReader) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(r.byte()) << (8 * i)
	}
	return v
}

// engineCall runs one engine call under a liveness watchdog: a
// single-writer engine that fails to answer is deadlocked, which a
// fuzzer would otherwise report as a timeout with no locus.
func engineCall(t *testing.T, op string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatalf("engine %s wedged: no response within 1m", op)
	}
}

// decodeFuzzRequest builds a request from fuzz bytes. The selector
// decides which fields are kept in-range and which are raw, so the
// corpus explores both the happy path and every validation error
// (out-of-range nodes, empty destination sets, duplicate
// destinations, non-finite bandwidth, empty chains).
func decodeFuzzRequest(r *fuzzReader, n, id int) *multicast.Request {
	sel := r.byte()
	src := int(r.byte())
	if sel&1 == 0 {
		src %= n
	}
	nd := int(r.byte() % 6)
	dests := make([]int, 0, nd)
	for i := 0; i < nd; i++ {
		d := int(r.byte())
		if sel&2 == 0 {
			d %= n
		}
		dests = append(dests, d)
	}
	var bw float64
	if sel&4 == 0 {
		bw = 1 + float64(r.u16()%2000)
	} else {
		bw = math.Float64frombits(r.u64()) // NaN, Inf, negatives, denormals
	}
	var chain nfv.Chain
	if sel&8 == 0 {
		chain, _ = nfv.RandomChain(rand.New(rand.NewSource(int64(r.byte()))), 1, 3)
	}
	return &multicast.Request{
		ID:            id,
		Source:        src,
		Destinations:  dests,
		BandwidthMbps: bw,
		Chain:         chain,
	}
}

// checkEngineConsistency reconciles the live table against the
// residual network: cap − free on every link and server must equal the
// sum of live allocations, residuals must sit inside [0, cap], and the
// engine's count views must agree. Safe to call with no in-flight
// operations.
func checkEngineConsistency(t *testing.T, eng *Engine, nw *sdn.Network) {
	t.Helper()
	var lives []*core.Solution
	engineCall(t, "Lives", func() { lives = eng.Lives() })
	wantLink := make([]float64, nw.NumEdges())
	wantSrv := make(map[int]float64)
	for _, sol := range lives {
		alloc := core.AllocationFor(sol.Request, sol.Tree)
		for _, l := range alloc.Links {
			wantLink[l.Edge] += l.Mbps
		}
		for _, s := range alloc.Servers {
			wantSrv[s.Node] += s.MHz
		}
	}
	// Tolerance scales with the capacity's own representable precision:
	// fuzzed resizes push caps to ~1e15, where cap − free has an ulp far
	// above the allocated share (the fuzzer found exactly this).
	const eps = 1e-6
	tol := func(want, cap float64) float64 {
		return eps*math.Max(1, math.Abs(want)) + 1e-9*math.Abs(cap)
	}
	for e := 0; e < nw.NumEdges(); e++ {
		free, cap := nw.ResidualBandwidth(e), nw.BandwidthCap(e)
		if free < -eps || free > cap+eps || math.IsNaN(free) {
			t.Fatalf("link %d residual %g outside [0, %g]", e, free, cap)
		}
		if got := cap - free; math.Abs(got-wantLink[e]) > tol(wantLink[e], cap) {
			t.Fatalf("link %d allocated %g but live table sums to %g", e, got, wantLink[e])
		}
	}
	for _, v := range nw.Servers() {
		free, cap := nw.ResidualCompute(v), nw.ComputeCap(v)
		if free < -eps || free > cap+eps || math.IsNaN(free) {
			t.Fatalf("server %d residual %g outside [0, %g]", v, free, cap)
		}
		if got := cap - free; math.Abs(got-wantSrv[v]) > tol(wantSrv[v], cap) {
			t.Fatalf("server %d allocated %g but live table sums to %g", v, got, wantSrv[v])
		}
	}
	var count int
	engineCall(t, "LiveCount", func() { count = eng.LiveCount() })
	if count != len(lives) {
		t.Fatalf("LiveCount %d disagrees with live table %d", count, len(lives))
	}
}

// FuzzEngineAdmit decodes arbitrary bytes into an Admit/Depart/read
// interleaving against a fresh engine and asserts no panic, no wedge,
// and a live table consistent with the residual network at the end.
func FuzzEngineAdmit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x00, 0x08, 0x02, 0x02, 0x05, 0x07, 0x64, 0x00, 0x03})
	f.Add([]byte("\x01\x00\x04\x03\x01\x09\xff\xff\xff\xff\xff\xff\xff\x7f\x01\x00\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		r := &fuzzReader{data: data}
		nw := testNetwork(t, "geant", 7)
		eng := New(nw, plannerFor(t, "Online_CP", nw), Options{Workers: int(r.byte() % 5)})
		defer engineCall(t, "Close", eng.Close)
		var live []int
		nextID := 1
		for ops := 0; ops < 64 && !r.done(); ops++ {
			switch r.byte() % 3 {
			case 0:
				req := decodeFuzzRequest(r, nw.NumNodes(), nextID)
				nextID++
				var err error
				engineCall(t, "Admit", func() { _, err = eng.Admit(req) })
				if err == nil {
					live = append(live, req.ID)
				}
			case 1:
				// Depart either a genuinely live session or a raw byte ID
				// (unknown, already departed, negative via wraparound).
				id := int(r.byte())
				if r.byte()%2 == 0 && len(live) > 0 {
					idx := id % len(live)
					id = live[idx]
					live = append(live[:idx], live[idx+1:]...)
				}
				engineCall(t, "Depart", func() { _, _ = eng.Depart(id) })
			default:
				engineCall(t, "reads", func() {
					_ = eng.LiveCount()
					_ = eng.AdmittedCount()
					_ = eng.RejectedCount()
				})
			}
		}
		checkEngineConsistency(t, eng, nw)
	})
}

// decodeFuzzMutation builds one typed mutation from fuzz bytes,
// spanning valid operations, unknown kinds, out-of-range IDs and
// non-finite capacities.
func decodeFuzzMutation(r *fuzzReader, nw *sdn.Network) Mutation {
	sel := r.byte()
	m := Mutation{Kind: MutationKind(r.byte() % 5), Up: r.byte()%2 == 0}
	id := int(r.byte())
	if sel&1 == 0 {
		switch m.Kind {
		case ServerState, ServerCapacity:
			servers := nw.Servers()
			id = servers[id%len(servers)]
		default:
			id %= nw.NumEdges()
		}
	} else if sel&2 == 0 {
		id = -1 - id%4
	}
	m.ID = id
	if sel&4 == 0 {
		m.Capacity = float64(1 + r.u16())
	} else {
		m.Capacity = math.Float64frombits(r.u64())
	}
	return m
}

// FuzzEngineUpdate decodes arbitrary bytes into typed mutation batches
// (failure injection, restores, capacity resizes — valid and malformed
// alike) applied to an engine with live sessions and self-healing
// enabled. It asserts Apply's contract: malformed batches are rejected
// with *MalformedMutationError and zero state change; valid batches
// (and their automatic recovery passes) never panic, never wedge, and
// leave the live table consistent with residual capacities.
func FuzzEngineUpdate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x00, 0x00, 0x01, 0x05, 0x10, 0x00, 0x00, 0x02, 0x00, 0x07})
	f.Add([]byte("\x01\x02\x03\x02\x09\x7f\xff\xff\xff\xff\xff\xff\xff\xff\x00\x01\x02"))
	// Cross-shard seed: the batch shape the shard router's ApplyAll
	// fans out during fleet maintenance — a link resize, a server
	// failure and a link restore, then a malformed tail (negative
	// server ID). The whole batch must reject with zero state change;
	// internal/shard's TestMalformedBatchShardIsolation asserts the
	// sibling-shard side of the same contract.
	f.Add([]byte{
		0x02, 0x03, // workers, then a 4-mutation batch
		0x00, 0x02, 0x00, 0x05, 0x10, 0x27, // valid: resize link 5
		0x00, 0x01, 0x01, 0x03, 0x00, 0x00, // valid: fail server (3rd)
		0x00, 0x00, 0x00, 0x07, 0x01, 0x00, // valid: restore link 7
		0x01, 0x03, 0x00, 0x02, 0xE8, 0x03, // malformed: server ID -3
	})
	// Threshold-crossing seed: capacity resizes that walk residual
	// classes across work-graph membership boundaries — a link squeezed
	// to 2 Mbps (below any request's bandwidth demand, so the cached
	// capacitated graph drops it) then regrown to 10001, and a server
	// shrunk to 3 MHz (below any chain's compute demand) then regrown —
	// driving the incremental cache through flip-triggered rebuilds in
	// both directions with live sessions and recovery enabled.
	f.Add([]byte{
		0x01, 0x03, // workers, then a 4-mutation batch
		0x00, 0x02, 0x00, 0x04, 0x01, 0x00, // link 4 capacity -> 2 Mbps
		0x00, 0x02, 0x00, 0x04, 0x10, 0x27, // link 4 capacity -> 10001 Mbps
		0x00, 0x03, 0x00, 0x01, 0x02, 0x00, // 2nd server -> 3 MHz
		0x00, 0x03, 0x00, 0x01, 0xA0, 0x0F, // 2nd server -> 4001 MHz
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		r := &fuzzReader{data: data}
		nw := testNetwork(t, "geant", 7)
		pol := recov.DefaultPolicy()
		eng := New(nw, plannerFor(t, "Online_CP", nw), Options{
			Workers:  1 + int(r.byte()%4),
			Recovery: &pol,
		})
		defer engineCall(t, "Close", eng.Close)
		// Seed live sessions so failures have trees to damage.
		gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			req, gerr := gen.Next()
			if gerr != nil {
				t.Fatal(gerr)
			}
			engineCall(t, "Admit", func() { _, _ = eng.Admit(req) })
		}
		for ops := 0; ops < 32 && !r.done(); ops++ {
			muts := make([]Mutation, 1+int(r.byte()%4))
			for i := range muts {
				muts[i] = decodeFuzzMutation(r, nw)
			}
			beforeMut, beforeStruct, beforeFree := networkState(eng)
			var aerr error
			engineCall(t, "Apply", func() { aerr = eng.Apply(muts...) })
			if aerr != nil {
				var merr *MalformedMutationError
				if !errors.As(aerr, &merr) {
					t.Fatalf("Apply error is not *MalformedMutationError: %v", aerr)
				}
				afterMut, afterStruct, afterFree := networkState(eng)
				if afterMut != beforeMut || afterStruct != beforeStruct || afterFree != beforeFree {
					t.Fatalf("rejected batch %v moved network state: mutVer %d->%d structVer %d->%d free %g->%g",
						muts, beforeMut, afterMut, beforeStruct, afterStruct, beforeFree, afterFree)
				}
			}
		}
		checkEngineConsistency(t, eng, nw)
	})
}
