package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nfvmcast/internal/engine"
	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/nfv"
	"nfvmcast/internal/sdn"
)

// Timeline expansion: a validated Config plus the concrete network
// deterministically produce one flat, time-sorted event list before
// the run starts. Expanding everything up front (instead of drawing
// randomness while driving the engine) is what makes a scenario's
// fingerprint a pure function of (config, seed): the engine's worker
// count, wall-clock jitter and invariant-check cadence can never
// perturb the workload.

// eventKind orders simultaneous events: departures free capacity
// before failures strike, failures strike before new arrivals compete
// for what is left.
type eventKind uint8

const (
	evDeparture eventKind = iota
	evFailure
	evArrival
)

// event is one timeline entry.
type event struct {
	at   float64
	kind eventKind

	// arrival
	req    *multicast.Request
	tenant int
	depart float64 // virtual departure instant

	// departure
	reqID int

	// failure
	fail *failureAction
}

// failureAction is one expanded failure-script step: either a typed
// mutation batch (applied atomically through engine.Apply) or a
// capacity resize (clamped against live allocations at execution
// time).
type failureAction struct {
	label string
	muts  []engine.Mutation
	// scale != 0 selects a resize action: every link's capacity
	// becomes scale× its original value (scale < 0 restores the
	// original capacities).
	scale float64
}

// tenantDefaults fills a tenant's zero-valued mix fields with the
// paper's §VI.A workload parameters.
func tenantDefaults(t Tenant) Tenant {
	if t.BandwidthMbps == [2]float64{} {
		t.BandwidthMbps = [2]float64{50, 200}
	}
	if t.ChainLength == [2]int{} {
		t.ChainLength = [2]int{1, 3}
	}
	if t.DestRatio == [2]float64{} {
		t.DestRatio = [2]float64{0.05, 0.2}
	}
	if t.MeanHoldingHours == 0 {
		t.MeanHoldingHours = 1
	}
	return t
}

// expDraw draws an exponential variate with the given mean.
func expDraw(rng *rand.Rand, mean float64) float64 {
	return -mean * math.Log(1-rng.Float64())
}

// phaseRate is λ(t) of a phase.
func phaseRate(p Phase, t float64) float64 {
	if p.Kind != PhaseDiurnal {
		return p.RatePerHour
	}
	period := p.PeriodHours
	if period == 0 {
		period = 24
	}
	return p.RatePerHour * (1 + p.Amplitude*math.Sin(2*math.Pi*t/period))
}

// drawRequest synthesises one request of a tenant class. hot is the
// phase's correlated destination pool (flash phases only, nil
// otherwise); affinity the probability each destination comes from it.
func drawRequest(rng *rand.Rand, n int, t Tenant, hot []graph.NodeID, affinity float64) (*multicast.Request, error) {
	src := rng.Intn(n)
	ratio := t.DestRatio[0] + rng.Float64()*(t.DestRatio[1]-t.DestRatio[0])
	dmax := int(ratio*float64(n) + 0.5)
	if dmax < 1 {
		dmax = 1
	}
	if dmax > n-1 {
		dmax = n - 1
	}
	nd := 1 + rng.Intn(dmax)
	used := map[graph.NodeID]bool{src: true}
	dests := make([]graph.NodeID, 0, nd)
	for len(dests) < nd {
		var d graph.NodeID = -1
		if len(hot) > 0 && rng.Float64() < affinity {
			// Try the hot pool first; a fully-used pool falls through to
			// a uniform draw so the request still fills its set.
			for _, off := range rng.Perm(len(hot)) {
				if !used[hot[off]] {
					d = hot[off]
					break
				}
			}
		}
		if d == -1 {
			d = rng.Intn(n)
			for used[d] {
				d = rng.Intn(n)
			}
		}
		used[d] = true
		dests = append(dests, d)
	}
	sort.Ints(dests)
	bw := t.BandwidthMbps[0] + rng.Float64()*(t.BandwidthMbps[1]-t.BandwidthMbps[0])
	chain, err := nfv.RandomChain(rng, t.ChainLength[0], t.ChainLength[1])
	if err != nil {
		return nil, err
	}
	return &multicast.Request{
		Source:        src,
		Destinations:  dests,
		BandwidthMbps: bw,
		Chain:         chain,
	}, nil
}

// expandArrivals draws every tenant phase's arrival process. Request
// IDs are assigned after the global time sort so they ascend with
// arrival time regardless of tenant interleaving.
func expandArrivals(cfg *Config, n int) ([]event, error) {
	var out []event
	for ti := range cfg.Tenants {
		tn := tenantDefaults(cfg.Tenants[ti])
		for pi, p := range tn.Phases {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(ti)*1000003 + int64(pi)*7919))
			var hot []graph.NodeID
			affinity := 0.0
			if p.Kind == PhaseFlash {
				pool := p.HotDestinations
				if pool == 0 {
					pool = 5
				}
				if pool > n {
					pool = n
				}
				hot = append(hot, rng.Perm(n)[:pool]...)
				affinity = p.HotAffinity
				if affinity == 0 {
					affinity = 0.8
				}
			}
			// Thinning against the phase's peak rate; steady and flash
			// phases accept every candidate (λ(t) == λmax).
			maxRate := p.RatePerHour
			if p.Kind == PhaseDiurnal {
				maxRate = p.RatePerHour * (1 + p.Amplitude)
			}
			for t := p.StartHours + expDraw(rng, 1/maxRate); t < p.EndHours; t += expDraw(rng, 1/maxRate) {
				if p.Kind == PhaseDiurnal && rng.Float64() > phaseRate(p, t)/maxRate {
					continue
				}
				req, err := drawRequest(rng, n, tn, hot, affinity)
				if err != nil {
					return nil, err
				}
				out = append(out, event{
					at:     t,
					kind:   evArrival,
					req:    req,
					tenant: ti,
					depart: t + expDraw(rng, tn.MeanHoldingHours),
				})
			}
		}
	}
	return out, nil
}

// regionLinks returns the links within radius hops of the epicenter:
// every edge incident to a node whose hop distance from the epicenter
// is less than radius. Sorted ascending for deterministic batches.
func regionLinks(g *graph.Graph, epicenter graph.NodeID, radius int) []graph.EdgeID {
	dist := map[graph.NodeID]int{epicenter: 0}
	frontier := []graph.NodeID{epicenter}
	for d := 1; d < radius && len(frontier) > 0; d++ {
		var next []graph.NodeID
		for _, v := range frontier {
			g.VisitNeighbors(v, func(to graph.NodeID, _ graph.EdgeID, _ float64) bool {
				if _, seen := dist[to]; !seen {
					dist[to] = d
					next = append(next, to)
				}
				return true
			})
		}
		frontier = next
	}
	seen := map[graph.EdgeID]bool{}
	var out []graph.EdgeID
	for v := range dist {
		g.VisitNeighbors(v, func(_ graph.NodeID, e graph.EdgeID, _ float64) bool {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
			return true
		})
	}
	sort.Ints(out)
	return out
}

// drainServers resolves a drain step's server list: the explicit list,
// or the Count lowest-ID servers of the network.
func drainServers(f *FailureStep, nw *sdn.Network) []graph.NodeID {
	if len(f.Servers) > 0 {
		return append([]graph.NodeID(nil), f.Servers...)
	}
	servers := nw.Servers()
	if f.Count < len(servers) {
		servers = servers[:f.Count]
	}
	return servers
}

// stateMuts builds an up/down batch over a resource list.
func stateMuts(kind engine.MutationKind, ids []int, up bool) []engine.Mutation {
	muts := make([]engine.Mutation, len(ids))
	for i, id := range ids {
		muts[i] = engine.Mutation{Kind: kind, ID: id, Up: up}
	}
	return muts
}

// expandFailures turns the failure script into timed actions against
// the concrete network, validating resource IDs the config alone could
// not check.
func expandFailures(cfg *Config, nw *sdn.Network) ([]event, error) {
	var out []event
	add := func(at float64, fa *failureAction) {
		out = append(out, event{at: at, kind: evFailure, fail: fa})
	}
	// outage takes ids down at at and, when dur > 0, back up dur later.
	outage := func(at, dur float64, kind engine.MutationKind, ids []int, downLabel, upLabel string) {
		add(at, &failureAction{label: downLabel, muts: stateMuts(kind, ids, false)})
		if dur > 0 {
			add(at+dur, &failureAction{label: upLabel, muts: stateMuts(kind, ids, true)})
		}
	}
	for fi := range cfg.Failures {
		f := &cfg.Failures[fi]
		where := fmt.Sprintf("scenario %q: failure %d", cfg.Name, fi)
		switch f.Kind {
		case FailLink:
			if f.ID >= nw.NumEdges() {
				return nil, fmt.Errorf("%s: link %d out of range (m=%d)", where, f.ID, nw.NumEdges())
			}
			outage(f.AtHours, f.DurationHours, engine.LinkState, []int{f.ID},
				fmt.Sprintf("link %d down", f.ID), fmt.Sprintf("link %d up", f.ID))
		case FailServer:
			if !nw.IsServer(f.ID) {
				return nil, fmt.Errorf("%s: node %d has no attached server", where, f.ID)
			}
			outage(f.AtHours, f.DurationHours, engine.ServerState, []int{f.ID},
				fmt.Sprintf("server %d down", f.ID), fmt.Sprintf("server %d up", f.ID))
		case FailRegion:
			if f.Epicenter >= nw.NumNodes() {
				return nil, fmt.Errorf("%s: epicenter %d out of range (n=%d)", where, f.Epicenter, nw.NumNodes())
			}
			links := regionLinks(nw.Graph(), f.Epicenter, f.RadiusHops)
			if len(links) == nw.NumEdges() {
				return nil, fmt.Errorf("%s: region around %d radius %d fails every link", where, f.Epicenter, f.RadiusHops)
			}
			outage(f.AtHours, f.DurationHours, engine.LinkState, links,
				fmt.Sprintf("region around %d down (%d links)", f.Epicenter, len(links)),
				fmt.Sprintf("region around %d up (%d links)", f.Epicenter, len(links)))
		case FailDrain:
			servers := drainServers(f, nw)
			for _, v := range servers {
				if !nw.IsServer(v) {
					return nil, fmt.Errorf("%s: drain node %d has no attached server", where, v)
				}
			}
			for i, v := range servers {
				at := f.AtHours + float64(i)*f.StaggerHours
				if at >= cfg.HorizonHours {
					return nil, fmt.Errorf("%s: drain of server %d at %g spills past horizon %g",
						where, v, at, cfg.HorizonHours)
				}
				outage(at, f.DurationHours, engine.ServerState, []int{v},
					fmt.Sprintf("drain server %d", v), fmt.Sprintf("undrain server %d", v))
			}
		case FailResize:
			add(f.AtHours, &failureAction{
				label: fmt.Sprintf("resize links to %g x original", f.Scale),
				scale: f.Scale,
			})
			if f.DurationHours > 0 {
				add(f.AtHours+f.DurationHours, &failureAction{
					label: "restore original link capacities",
					scale: -1,
				})
			}
		}
	}
	return out, nil
}

// buildTimeline expands the whole scenario into a sorted event list:
// arrivals (with request IDs ascending in arrival order), their
// departures (those inside the horizon), and the failure script.
func buildTimeline(cfg *Config, nw *sdn.Network) ([]event, error) {
	arrivals, err := expandArrivals(cfg, nw.NumNodes())
	if err != nil {
		return nil, err
	}
	// IDs ascend with (time, tenant, draw order): sort arrivals alone
	// first so the departure events can carry their request's ID.
	sort.SliceStable(arrivals, func(i, j int) bool {
		if arrivals[i].at != arrivals[j].at {
			return arrivals[i].at < arrivals[j].at
		}
		return arrivals[i].tenant < arrivals[j].tenant
	})
	events := make([]event, 0, 2*len(arrivals))
	for i := range arrivals {
		arrivals[i].req.ID = i + 1
		events = append(events, arrivals[i])
		if arrivals[i].depart < cfg.HorizonHours {
			events = append(events, event{
				at:    arrivals[i].depart,
				kind:  evDeparture,
				reqID: arrivals[i].req.ID,
			})
		}
	}
	fails, err := expandFailures(cfg, nw)
	if err != nil {
		return nil, err
	}
	events = append(events, fails...)
	// The stable sort breaks (time, kind) ties by expansion order.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].kind < events[j].kind
	})
	return events, nil
}
