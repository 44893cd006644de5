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
// every node, the same host-edge maps and the same eligible servers.
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
	sameInts := func(what string, a, b []int) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s %v, want %v", label, what, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %d, want %d", label, what, i, a[i], b[i])
			}
		}
	}
	sameInts("toHost", got.toHost, want.toHost)
	sameInts("servers", got.servers, want.servers)
	if len(got.fromHost) != len(want.fromHost) {
		t.Fatalf("%s: fromHost length %d, want %d", label, len(got.fromHost), len(want.fromHost))
	}
	for e := range got.fromHost {
		if got.fromHost[e] != want.fromHost[e] {
			t.Fatalf("%s: fromHost[%d] = %d, want %d", label, e, got.fromHost[e], want.fromHost[e])
		}
	}
}

// TestTemplateBuildMatchesColdBuild pins buildWorkGraphFrom's
// exactness: in every residual state below, a work graph derived from
// a template built at an earlier state must equal a cold build
// (sameWorkGraph), and a request whose link membership differs from
// the template's must be refused. It then drives the planner's cache
// through the same states and requires the template path to have
// fired, with every cached view equal to a cold build.
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
		return buildWorkGraph(nw, req, true, func(e graph.EdgeID) float64 { return p.cache.weight(nw, req, e) })
	}
	fromTemplate := func(tmpl *workGraph, req *multicast.Request) *workGraph {
		return buildWorkGraphFrom(tmpl, nw, req, true, func(e graph.EdgeID) float64 { return p.cache.weight(nw, req, e) })
	}
	// check derives req's view from tmpl and demands it match a cold
	// build, or be refused exactly when the membership differs. It
	// reports whether the template was taken.
	check := func(label string, tmpl *workGraph, req *multicast.Request) bool {
		t.Helper()
		cold := build(req)
		same := len(tmpl.fromHost) == len(cold.fromHost)
		for e := 0; same && e < len(cold.fromHost); e++ {
			same = (tmpl.fromHost[e] >= 0) == (cold.fromHost[e] >= 0)
		}
		got := fromTemplate(tmpl, req)
		if (got != nil) != same {
			t.Fatalf("%s: template taken = %v with equal membership = %v", label, got != nil, same)
		}
		if got != nil {
			sameWorkGraph(t, label, got, cold)
		}
		return got != nil
	}
	// viaCache plans req through the planner (warming its cache) and
	// checks the cached view against a cold build.
	viaCache := func(label string, req *multicast.Request) {
		t.Helper()
		w, _ := p.cache.acquire(nw, req)
		sameWorkGraph(t, label+" (cache)", w, build(req))
	}

	// Idle: every up link is a member for every request.
	idleTmpl := build(next())
	for i := 0; i < 5; i++ {
		req := next()
		if !check("idle", idleTmpl, req) {
			t.Fatal("idle: template refused on an idle substrate")
		}
		viaCache("idle", req)
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
	loadedTmpl := build(next())
	for i := 0; i < 10; i++ {
		req := next()
		check("loaded vs idle template", idleTmpl, req)
		check("loaded", loadedTmpl, req)
		viaCache("loaded", req)
	}

	// One member link drained to just below b_k: membership changes.
	req := next()
	tmpl := build(req)
	e := -1
	for h := 0; h < nw.NumEdges(); h++ {
		if tmpl.fromHost[h] >= 0 && nw.ResidualBandwidth(h) > req.BandwidthMbps {
			e = h
			break
		}
	}
	if e < 0 {
		t.Fatal("no member link with slack")
	}
	if err := nw.Allocate(sdn.Allocation{Links: map[graph.EdgeID]float64{
		e: nw.ResidualBandwidth(e) - 0.999*req.BandwidthMbps,
	}}); err != nil {
		t.Fatal(err)
	}
	if check("link below b_k", tmpl, req) {
		t.Fatal("link below b_k: template taken despite a membership change")
	}
	viaCache("link below b_k", req)

	// A failed link: membership changes.
	req = next()
	tmpl = build(req)
	e = tmpl.toHost[0]
	if err := nw.SetLinkUp(e, false); err != nil {
		t.Fatal(err)
	}
	if check("failed link", tmpl, req) {
		t.Fatal("failed link: template taken despite a membership change")
	}
	viaCache("failed link", req)
	if err := nw.SetLinkUp(e, true); err != nil {
		t.Fatal(err)
	}

	// A failed server: links unchanged, the server list shrinks.
	req = next()
	tmpl = build(req)
	if len(tmpl.servers) == 0 {
		t.Fatal("no eligible server")
	}
	v := tmpl.servers[0]
	if err := nw.SetServerUp(v, false); err != nil {
		t.Fatal(err)
	}
	if check("failed server", tmpl, req) {
		for _, s := range fromTemplate(tmpl, req).servers {
			if s == v {
				t.Fatal("failed server: failed server still eligible")
			}
		}
	}
	viaCache("failed server", req)
	viaCache("failed server", next())

	p.cache.mu.Lock()
	templated, builds := p.cache.templated, p.cache.builds
	p.cache.mu.Unlock()
	t.Logf("cache: %d cold builds, %d of them from a template", builds, templated)
	if templated == 0 {
		t.Fatal("the cache never built from a template")
	}
}

// TestTemplateBuildConcurrent is the race gate for shared adjacency:
// concurrent plans cold-build their views from one shared template
// while other goroutines run Dijkstra over the template's graph and
// over graphs aliasing its adjacency. Every plan must match a fresh
// planner's answer, and the template path must have fired.
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
		t.Fatal(err) // the shared template
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
					g = view.g // aliases the template's adjacency
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
		sameSolution(t, got[i], want[i], "concurrent templated plan")
	}
	p.cache.mu.Lock()
	templated := p.cache.templated
	p.cache.mu.Unlock()
	if templated == 0 {
		t.Fatal("no plan built its view from the template")
	}
}
