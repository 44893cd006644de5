package core

import (
	"context"
	"testing"

	"nfvmcast/internal/multicast"
)

// batchAdmitter pairs a CP admitter with planned-but-uncommitted
// solutions for n deterministic requests.
func batchAdmitter(t *testing.T, n int) (*Admitter, []*multicast.Request, []*Solution) {
	t.Helper()
	nw := testNetwork(t, 40, 9)
	cp, err := newCPAdmitter(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*multicast.Request, 0, n)
	sols := make([]*Solution, 0, n)
	for i := 0; i < n; i++ {
		req := testRequest(t, nw, 300+int64(i))
		req.ID = i
		sol, err := cp.PlanOn(context.Background(), nw, req, nil)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		reqs = append(reqs, req)
		sols = append(sols, sol)
	}
	return cp, reqs, sols
}

func TestCommitBatchOrdersByRequestID(t *testing.T) {
	adm, reqs, sols := batchAdmitter(t, 4)

	// Feed the batch in reverse arrival order; results must come back
	// committed ascending by request ID.
	rr := []*multicast.Request{reqs[3], reqs[1], reqs[2], reqs[0]}
	ss := []*Solution{sols[3], sols[1], sols[2], sols[0]}
	results, err := adm.CommitBatch(rr, ss)
	if err != nil {
		t.Fatalf("CommitBatch: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for pos, r := range results {
		if r.Req.ID != pos {
			t.Fatalf("result %d is request %d, want ascending request-ID order", pos, r.Req.ID)
		}
		if r.Err != nil {
			t.Fatalf("member %d failed: %v", pos, r.Err)
		}
		if rr[r.Index] != r.Req {
			t.Fatalf("result %d Index %d does not point at its request", pos, r.Index)
		}
	}
	if got := adm.AdmittedCount(); got != 4 {
		t.Fatalf("admitted = %d, want 4", got)
	}
	if got := adm.LiveCount(); got != 4 {
		t.Fatalf("live = %d, want 4", got)
	}
}

func TestCommitBatchBumpsMutationVersionOnce(t *testing.T) {
	adm, reqs, sols := batchAdmitter(t, 6)
	before := adm.Network().MutationVersion()
	if _, err := adm.CommitBatch(reqs, sols); err != nil {
		t.Fatalf("CommitBatch: %v", err)
	}
	if got := adm.Network().MutationVersion(); got != before+1 {
		t.Fatalf("MutationVersion moved %d times for one batch, want 1", got-before)
	}
}

func TestCommitBatchPartialFailure(t *testing.T) {
	adm, reqs, sols := batchAdmitter(t, 3)

	// Sabotage the middle member: demand more bandwidth than any link
	// holds so its allocation is rejected during the batch. Requests
	// before and after it must still commit.
	reqs[1].BandwidthMbps = 1e12
	results, err := adm.CommitBatch(reqs, sols)
	if err != nil {
		t.Fatalf("CommitBatch: %v", err)
	}
	var failed, ok int
	for _, r := range results {
		if r.Err != nil {
			failed++
			if r.Req.ID != 1 {
				t.Fatalf("request %d failed, want only request 1", r.Req.ID)
			}
			if r.Sol != nil {
				t.Fatalf("failed member carries a solution")
			}
		} else {
			ok++
		}
	}
	if failed != 1 || ok != 2 {
		t.Fatalf("failed=%d ok=%d, want 1 and 2", failed, ok)
	}
	if got := adm.LiveCount(); got != 2 {
		t.Fatalf("live = %d, want 2", got)
	}
	// A failed member inside the batch must not leak allocations: the
	// lives of the two committed sessions account for everything.
	nw := adm.Network()
	var held float64
	for _, sol := range adm.Lives() {
		for _, l := range AllocationFor(sol.Request, sol.Tree).Links {
			held += l.Mbps
		}
	}
	var missing float64
	for e := 0; e < nw.NumEdges(); e++ {
		missing += nw.BandwidthCap(e) - nw.ResidualBandwidth(e)
	}
	if diff := held - missing; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("allocated bandwidth %v != live sessions' hold %v", missing, held)
	}
}

func TestCommitBatchInputValidation(t *testing.T) {
	adm, reqs, sols := batchAdmitter(t, 2)
	if _, err := adm.CommitBatch(reqs, sols[:1]); err == nil {
		t.Fatal("mismatched slice lengths accepted")
	}
	if _, err := adm.CommitBatch([]*multicast.Request{reqs[0], nil}, sols); err == nil {
		t.Fatal("nil member accepted")
	}
	if res, err := adm.CommitBatch(nil, nil); err != nil || res != nil {
		t.Fatalf("empty batch: res=%v err=%v, want nil/nil", res, err)
	}
}
