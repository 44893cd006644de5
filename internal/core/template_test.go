package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// sameWorkGraph demands two work graphs be interchangeable: the same
// edge list (endpoints and weight bits), the same adjacency order at
// every node and the same eligible servers.
func sameWorkGraph(t *testing.T, label string, got, want *workGraph) {
	t.Helper()
	ge, we := got.g.Edges(), want.g.Edges()
	if got.g.NumNodes() != want.g.NumNodes() || len(ge) != len(we) {
		t.Fatalf("%s: shape (%d nodes, %d edges), want (%d, %d)",
			label, got.g.NumNodes(), len(ge), want.g.NumNodes(), len(we))
	}
	for i := range ge {
		if ge[i].U != we[i].U || ge[i].V != we[i].V || math.Float64bits(ge[i].W) != math.Float64bits(we[i].W) {
			t.Fatalf("%s: edge %d = %+v, want %+v", label, i, ge[i], we[i])
		}
	}
	for v := 0; v < got.g.NumNodes(); v++ {
		gn, wn := got.g.Neighbors(v), want.g.Neighbors(v)
		if len(gn) != len(wn) {
			t.Fatalf("%s: node %d degree %d, want %d", label, v, len(gn), len(wn))
		}
		for i := range gn {
			if gn[i].Node != wn[i].Node || gn[i].EdgeID != wn[i].EdgeID ||
				math.Float64bits(gn[i].Weight) != math.Float64bits(wn[i].Weight) {
				t.Fatalf("%s: node %d adjacency[%d] = %+v, want %+v", label, v, i, gn[i], wn[i])
			}
		}
	}
	if len(got.servers) != len(want.servers) {
		t.Fatalf("%s: servers %v, want %v", label, got.servers, want.servers)
	}
	for i := range got.servers {
		if got.servers[i] != want.servers[i] {
			t.Fatalf("%s: servers[%d] = %d, want %d", label, i, got.servers[i], want.servers[i])
		}
	}
}

// outsideLinks lists the links w prices at +Inf: those outside its
// view.
func outsideLinks(w *workGraph) []graph.EdgeID {
	var out []graph.EdgeID
	for e := 0; e < w.g.NumEdges(); e++ {
		if math.IsInf(w.g.Weight(e), 1) {
			out = append(out, e)
		}
	}
	return out
}

// TestTemplateBuildMatchesColdBuild pins the cache's base: in every
// membership pattern below (idle, 200 live sessions, a link drained
// below b_k, a failed link, a failed server), the view the cache
// builds on its own copy of the network graph must equal a build on
// nw.Graph() (sameWorkGraph), price exactly the non-member links at
// +Inf, and come from the one base the cache took on its first build.
func TestTemplateBuildMatchesColdBuild(t *testing.T) {
	nw := testNetwork(t, 100, 42)
	model := DefaultCostModel(nw.NumNodes())
	p, err := NewCPPlanner(model)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 77)
	if err != nil {
		t.Fatal(err)
	}
	next := func() *multicast.Request {
		req, gerr := gen.Next()
		if gerr != nil {
			t.Fatal(gerr)
		}
		return req
	}
	build := func(req *multicast.Request) *workGraph {
		return buildWorkGraph(nw.Graph(), nw, req, true, func(e graph.EdgeID) float64 { return p.cache.weight(nw, req, e) })
	}
	var base *graph.Graph
	// viaCache builds req's view through the planner's cache and checks
	// it against a build on nw.Graph() and against the membership rule.
	// It returns the view's outside links.
	viaCache := func(label string, req *multicast.Request) []graph.EdgeID {
		t.Helper()
		w, _ := p.cache.acquire(nw, req)
		sameWorkGraph(t, label, w, build(req))
		out := outsideLinks(w)
		for e, i := 0, 0; e < nw.NumEdges(); e++ {
			outside := i < len(out) && out[i] == e
			if outside {
				i++
			}
			if outside == linkMember(nw, req, true, e) {
				t.Fatalf("%s: link %d priced outside = %v, member = %v", label, e, outside, !outside)
			}
		}
		p.cache.mu.Lock()
		if base == nil {
			base = p.cache.base
		}
		same := p.cache.base == base
		p.cache.mu.Unlock()
		if !same {
			t.Fatalf("%s: the cache replaced its base", label)
		}
		return out
	}

	// Idle: every up link is a member for every request.
	for i := 0; i < 5; i++ {
		if out := viaCache("idle", next()); len(out) != 0 {
			t.Fatalf("idle: %d links outside the view", len(out))
		}
	}

	// 200 live sessions.
	adm, err := newCPAdmitter(nw, model)
	if err != nil {
		t.Fatal(err)
	}
	for live, tries := 0, 0; live < 200; tries++ {
		if tries > 2000 {
			t.Fatalf("only %d sessions admitted", live)
		}
		if _, aerr := adm.Admit(context.Background(), next(), nil); aerr == nil {
			live++
		} else if !IsRejection(aerr) {
			t.Fatal(aerr)
		}
	}
	for i := 0; i < 10; i++ {
		viaCache("loaded", next())
	}

	// One member link drained to just below b_k: it leaves the view.
	req := next()
	before := viaCache("before drain", req)
	e := -1
	for h := 0; h < nw.NumEdges(); h++ {
		if linkMember(nw, req, true, h) && nw.ResidualBandwidth(h) > req.BandwidthMbps {
			e = h
			break
		}
	}
	if e < 0 {
		t.Fatal("no member link with slack")
	}
	if err := nw.Allocate(sdn.Allocation{Links: []sdn.LinkShare{{Edge: e, Mbps: nw.ResidualBandwidth(e) - 0.999*req.BandwidthMbps}}}); err != nil {
		t.Fatal(err)
	}
	if after := viaCache("link below b_k", req); len(after) != len(before)+1 {
		t.Fatalf("link below b_k: %d links outside, want %d", len(after), len(before)+1)
	}

	// A failed link leaves every view.
	req = next()
	e = -1
	for h := 0; h < nw.NumEdges() && e < 0; h++ {
		if linkMember(nw, req, true, h) {
			e = h
		}
	}
	if err := nw.SetLinkUp(e, false); err != nil {
		t.Fatal(err)
	}
	viaCache("failed link", req)
	if err := nw.SetLinkUp(e, true); err != nil {
		t.Fatal(err)
	}

	// A failed server: links unchanged, the server list shrinks.
	req = next()
	w, _ := p.cache.acquire(nw, req)
	if len(w.servers) == 0 {
		t.Fatal("no eligible server")
	}
	v := w.servers[0]
	if err := nw.SetServerUp(v, false); err != nil {
		t.Fatal(err)
	}
	viaCache("failed server", req)
	w, _ = p.cache.acquire(nw, req)
	for _, s := range w.servers {
		if s == v {
			t.Fatal("failed server: failed server still eligible")
		}
	}
	viaCache("failed server", next())
}

// TestTemplateBuildConcurrent is the race gate for shared adjacency:
// concurrent plans build their views on the cache's base while other
// goroutines run Dijkstra over an earlier view and over views aliasing
// its adjacency. Every plan must match a fresh planner's answer.
func TestTemplateBuildConcurrent(t *testing.T) {
	nw := testNetwork(t, 80, 5)
	model := DefaultCostModel(nw.NumNodes())
	p, err := NewCPPlanner(model)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 19)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := gen.Batch(33)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(context.Background(), nw, reqs[0], nil); err != nil && !IsRejection(err) {
		t.Fatal(err) // the cache takes its base
	}
	tmpl, _ := p.cache.acquire(nw, reqs[0])
	reqs = reqs[1:]

	want := make([]*Solution, len(reqs))
	wantErr := make([]error, len(reqs))
	for i, req := range reqs {
		cold, err := NewCPPlanner(model)
		if err != nil {
			t.Fatal(err)
		}
		want[i], wantErr[i] = cold.Plan(context.Background(), nw, req, nil)
	}

	const planners, walkers = 4, 2
	got := make([]*Solution, len(reqs))
	gotErr := make([]error, len(reqs))
	stop := make(chan struct{})
	var plans, walks sync.WaitGroup
	for w := 0; w < walkers; w++ {
		walks.Add(1)
		go func(w int) {
			defer walks.Done()
			var ws graph.DijkstraWorkspace
			var sp graph.ShortestPaths
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g := tmpl.g
				if view, _ := p.cache.acquire(nw, reqs[(i+w)%len(reqs)]); i%2 == 1 {
					g = view.g // aliases tmpl's adjacency
				}
				if err := ws.DijkstraInto(g, i%g.NumNodes(), &sp); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < planners; w++ {
		plans.Add(1)
		go func(w int) {
			defer plans.Done()
			arena := NewPlanArena()
			for i := w; i < len(reqs); i += planners {
				got[i], gotErr[i] = p.Plan(context.Background(), nw, reqs[i], arena)
			}
		}(w)
	}
	plans.Wait()
	close(stop)
	walks.Wait()

	for i := range reqs {
		if (gotErr[i] == nil) != (wantErr[i] == nil) {
			t.Fatalf("request %d: err %v, fresh planner %v", i, gotErr[i], wantErr[i])
		}
		if gotErr[i] != nil {
			if gotErr[i].Error() != wantErr[i].Error() {
				t.Fatalf("request %d: error %q, fresh planner %q", i, gotErr[i], wantErr[i])
			}
			continue
		}
		sameSolution(t, got[i], want[i], "concurrent plan")
	}
}
