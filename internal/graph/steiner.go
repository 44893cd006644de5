package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// SteinerTree is an approximate minimum Steiner tree over a host
// graph: a set of host edge IDs forming a tree that spans Terminals.
type SteinerTree struct {
	Terminals []NodeID
	EdgeIDs   []EdgeID
	Weight    float64
}

// Nodes returns the sorted-unique node set touched by the tree.
// A single-terminal tree returns just that terminal.
func (t *SteinerTree) Nodes(g *Graph) []NodeID {
	out := make([]NodeID, 0, len(t.Terminals)+2*len(t.EdgeIDs))
	out = append(out, t.Terminals...)
	for _, id := range t.EdgeIDs {
		e := g.Edge(id)
		out = append(out, e.U, e.V)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// reset empties t to the edgeless tree over terms, keeping its slices.
func (t *SteinerTree) reset(terms []NodeID) {
	t.Terminals = append(t.Terminals[:0], terms...)
	t.EdgeIDs = t.EdgeIDs[:0]
	t.Weight = 0
}

// SteinerScratch owns every transient structure of a KMB run — the
// Dijkstra workspace and per-terminal trees of step (1), the metric
// closure and MST arenas of steps (2) and (4), and the slice-backed
// union/pruning scratch of steps (3)–(5) — so repeated Steiner
// evaluations (one per candidate on the planner hot path) reuse one
// allocation set instead of rebuilding maps per call. It also carries
// the state of a fixed-terminal sweep (BeginSweep).
//
// The zero value is ready to use. A scratch is not safe for concurrent
// use: give each worker goroutine its own (see core's plan arenas).
// Results are bit-identical to scratch-free runs — the scratch only
// changes where intermediate state lives, never what is computed.
type SteinerScratch struct {
	ws  DijkstraWorkspace
	sps []*ShortestPaths // step-1 trees when the caller supplies none

	terms    []NodeID         // deduped terminals, in first-occurrence order
	dedupSPs []*ShortestPaths // their step-1 trees, parallel to terms
	nodeGen  []uint32         // node stamp: terminal dedup, then step-4 compact IDs
	nodeOf   []int32          // host node -> compact subgraph ID, valid when stamped
	gen      uint32

	dense      denseMST // step 2: Prim over the closure, read in place
	closure    Graph    // step 2 when dense does not certify: the closure built
	mst        MSTWorkspace
	closureMST MST
	pairs      []closurePair // the closure MST steps 3-5 expand
	pm         []pathMax     // a sweep's insertion, by fixed index
	dropped    []bool        // likewise, by pathMax.edge

	edgeGen []uint32 // step-3 union dedup stamp, indexed by host edge
	union   []EdgeID
	virt    []virtualEdge // a row's step-3 virtual edges, then its survivors

	revNode []NodeID // step-4 compact subgraph over the union
	sub     Graph
	subMST  MST

	isTerm   []bool    // step-5 pruning, indexed by compact node ID
	deg      []int32   // likewise
	incident [][]int32 // compact node -> incident sub-edge IDs
	alive    []bool    // indexed by sub-edge ID
	queue    []int32   // compact node IDs pending prune

	sweep  steinerSweep
	row    steinerRow
	census steinerCensus
}

// virtualTerm stands for a row's virtual terminal in a terminal list.
const virtualTerm NodeID = -1

// steinerRow is the closure row of a sweep's virtual terminal
// (SweepRow), by closure index, the terminal's own index left empty:
// terminal k is reached over the virtual edge to via[k]'s root, weighted
// omega[k], then along via[k]'s path. A rooted row has no virtual edge.
type steinerRow struct {
	via     []*ShortestPaths
	omega   []float64
	rooted  bool
	root    NodeID   // via's common root, when rooted
	anchor  int32    // step 4: the compact node step 5 keeps for the row
	servers []NodeID // the entry servers the tree uses
}

// weight is the row's closure weight to terminal t at closure index k.
func (r *steinerRow) weight(k int, t NodeID) float64 {
	if r.rooted {
		return r.via[k].Dist[t]
	}
	return r.omega[k] + r.via[k].Dist[t]
}

// virtualEdge is a row's edge to entry server node, weighted w.
type virtualEdge struct {
	node NodeID
	w    float64
}

// closurePair is a closure MST edge by the indices of its ends in
// s.terms, u < v.
type closurePair struct{ u, v int32 }

// pair orients a closure edge between indices i and j.
func pair(i, j int32) closurePair {
	return closurePair{min(i, j), max(i, j)}
}

// steinerSweep is the state of one fixed-terminal sweep: the deduped
// fixed terminals F with their trees, where the varying terminal v sits
// among them, the MST M_F of F's closure once built, rooted at F's
// first terminal for the insertion of v, and the arguments of the full
// call — KMB over the caller's fixed terminals with v in its slot and
// no tree for it — that SweepTree must reproduce.
type steinerSweep struct {
	g     *Graph
	fixed []NodeID         // F deduped, in first-occurrence order
	sps   []*ShortestPaths // parallel to fixed
	at    int              // v's index among the deduped terminals
	calls int

	mfState mfState
	mf      []mfLink // M_F rooted at fixed[0], by fixed index, when mfUnique
	mfOrder []int32  // fixed indices in Prim's pop order: parents first

	full    []NodeID // the caller's fixed terminals with v at its slot
	fullSPs []*ShortestPaths
	slot    int // v's slot in full
}

// mfLink is a fixed terminal's edge to its parent in the rooted M_F.
type mfLink struct {
	parent int32 // -1 at the root
	w      float64
}

// pathMax is the heaviest edge on the path from a fixed terminal to the
// varying one in the insertion's tree: for edge < |F|, M_F's edge from
// fixed index edge to its parent, otherwise the varying terminal's
// closure edge to fixed index edge − |F|. tied marks a second edge of
// that weight on the path.
type pathMax struct {
	w    float64
	edge int32
	tied bool
}

// mfState records whether a sweep has built M_F and what it found; the
// last three are also denseMST.run's verdict on any closure MST.
type mfState uint8

const (
	mfPending mfState = iota // not built: the sweep has priced one candidate
	mfUnique                 // F connected, M_F certified unique: reduced closures apply
	mfTied                   // M_F not certified unique: full calls only
	mfCut                    // F disconnected: full calls only, which name the pair
)

// steinerCensus counts the branches KMB runs take: how a sweep priced
// each candidate, whether a rooted row's root was a fixed terminal,
// whether the dense closure MST certified (a full call's step 2 or M_F)
// or tied, and whether step 3's union was already a tree.
type steinerCensus struct {
	first, duplicate, certified, tie int // sweep paths
	rootAtFixed                      int // rooted rows whose root is in F
	denseCertified, denseTied        int // closure MSTs
	treeUnions, cyclicUnions         int // steps 4-5
}

// disableReducedClosure sends every SweepTree and SweepRow call down the
// full-closure path. Tests flip it to compare the reduced closure
// against the full call on the same inputs.
var disableReducedClosure bool

// ensure sizes the stamp arrays for a host graph with n nodes and m
// edges. Fresh arrays are zero-stamped, which never matches a live
// generation (gen starts at 1).
func (s *SteinerScratch) ensure(n, m int) {
	if cap(s.nodeGen) < n {
		s.nodeGen = make([]uint32, n)
		s.nodeOf = make([]int32, n)
	} else {
		s.nodeGen = s.nodeGen[:n]
		s.nodeOf = s.nodeOf[:n]
	}
	if cap(s.edgeGen) < m {
		s.edgeGen = make([]uint32, m)
	} else {
		s.edgeGen = s.edgeGen[:m]
	}
}

// nextGen advances the scratch generation, invalidating every node and
// edge stamp in O(1). On the (astronomically rare) uint32 wrap the
// stamp arrays are cleared so stale stamps cannot alias a live
// generation.
func (s *SteinerScratch) nextGen() uint32 {
	s.gen++
	if s.gen == 0 {
		for i := range s.nodeGen {
			s.nodeGen[i] = 0
		}
		for i := range s.edgeGen {
			s.edgeGen[i] = 0
		}
		s.gen = 1
	}
	return s.gen
}

// SteinerKMB computes a Steiner tree spanning terminals using the
// Kou–Markowsky–Berman algorithm (Acta Informatica 15, 1981), whose
// output costs at most 2·(1 − 1/ℓ) times the optimum for ℓ terminals.
// This is the approximation the paper invokes for both Appro_Multi and
// Online_CP.
//
// Steps: (1) metric closure over the terminals via one Dijkstra per
// terminal, (2) MST of the closure, (3) expand closure edges to host
// shortest paths, (4) MST of the expansion, (5) prune non-terminal
// leaves. Returns ErrDisconnected when some terminal pair is not
// connected in g.
func SteinerKMB(g *Graph, terminals []NodeID) (*SteinerTree, error) {
	return SteinerKMBScratch(g, terminals, new(SteinerScratch))
}

// SteinerKMBScratch is SteinerKMB with caller-owned scratch, for hot
// paths that run many KMB instances back to back.
func SteinerKMBScratch(g *Graph, terminals []NodeID, scratch *SteinerScratch) (*SteinerTree, error) {
	out := new(SteinerTree)
	if err := steinerKMB(g, terminals, nil, nil, scratch, out, true); err != nil {
		return nil, err
	}
	return out, nil
}

// BeginSweep starts pricing a family of terminal sets that share the
// fixed terminals and differ in one varying terminal v: each SweepTree
// call returns the KMB tree over fixed with v inserted at index at. The
// sweep copies fixed and fixedSPs (fixedSPs[i] must be the tree of g
// rooted at fixed[i]) and reads g until the next BeginSweep; v needs no
// tree of its own. The online planners sweep a request's candidate
// servers this way: Online_CP over {s_k, v} ∪ D_k (at = 1), Dist_CP's
// fan-out over {v} ∪ D_k (at = 0).
func (s *SteinerScratch) BeginSweep(g *Graph, fixed []NodeID, fixedSPs []*ShortestPaths, at int) error {
	if len(fixedSPs) != len(fixed) {
		return fmt.Errorf("graph: %d terminals with %d shortest-path trees",
			len(fixed), len(fixedSPs))
	}
	if at < 0 || at > len(fixed) {
		return fmt.Errorf("graph: sweep slot %d outside [0, %d]", at, len(fixed))
	}
	sw := &s.sweep
	*sw = steinerSweep{
		g: g, slot: at,
		fixed: sw.fixed[:0], sps: sw.sps[:0], mf: sw.mf[:0], mfOrder: sw.mfOrder[:0],
		full:    append(append(append(sw.full[:0], fixed[:at]...), -1), fixed[at:]...),
		fullSPs: append(append(append(sw.fullSPs[:0], fixedSPs[:at]...), nil), fixedSPs[at:]...),
	}
	n := g.NumNodes()
	s.ensure(n, g.NumEdges())
	gen := s.nextGen()
	for i, t := range fixed {
		switch sp := fixedSPs[i]; {
		case t < 0 || t >= n:
			return fmt.Errorf("%w: terminal %d with n=%d", ErrNodeOutOfRange, t, n)
		case sp == nil:
			return fmt.Errorf("graph: no shortest-path tree for terminal %d", i)
		case sp.Source != t:
			return fmt.Errorf("graph: shortest-path tree %d is not rooted at terminal %d", i, t)
		}
		if s.nodeGen[t] == gen {
			continue
		}
		s.nodeGen[t] = gen
		if i < at {
			sw.at++
		}
		sw.fixed = append(sw.fixed, t)
		sw.sps = append(sw.sps, fixedSPs[i])
	}
	return nil
}

// SweepTree computes into out (reusing its slices) the KMB tree over the
// sweep's fixed terminals with v at its slot. v has no tree: its closure
// row is read from the fixed terminals' trees (d(v,t) = Dist[v] of t's
// tree, g being undirected) and its closure-MST edges are expanded by
// walking those trees back from v. The result — Terminals, EdgeIDs,
// Weight bits and error — is that of the full call, the KMB pipeline
// over the whole terminal list with that one tree missing.
//
// The first call is the full call. Later calls build M_F, the MST of the
// fixed terminals' closure, once, and insert v into it in one pass over
// the tree, dropping the strict maximum of each cycle v's edges close.
// The result is kept when M_F is certified unique and no cycle's
// maximum tied: every other fixed pair is then the strict maximum of a
// cycle through M_F, so the result is the full closure's only MST
// (DESIGN.md §8). Otherwise, and when v is itself a fixed terminal, the
// full call runs, so ties break exactly as in it.
func (s *SteinerScratch) SweepTree(v NodeID, out *SteinerTree) error {
	return s.sweepCall(v, nil, out)
}

// SweepRow is SweepTree for a virtual terminal, a node outside g that
// reaches fixed[j] over a virtual edge to via[j]'s root, weighted
// omega[j], and on along via[j]'s path: Appro_Multi's server subset
// (the paper's virtual source s'_k) with the caller's choice of entry
// server per destination. Its closure weight to fixed[j] is omega[j] +
// via[j].Dist[fixed[j]], and step 3 walks via[j], never fixed[j]'s tree.
// Steps 4–5 run Kruskal on the union's host edges in ascending order,
// then the used virtual edges in ascending server order; omega must
// weigh each server alike wherever it enters. A nil omega makes a
// rooted row: every via[j] has one root r, which stands in for the
// virtual terminal without a virtual edge. The virtual terminal keeps
// its own closure node even where r is a fixed terminal.
//
// out receives the fixed terminals, which must be distinct, the
// surviving host edges in ascending order, and as Weight their weights
// in that order followed by the surviving virtual edges'. SweepRow
// returns the entry servers the tree uses, ascending ({r} for a rooted
// row), in scratch the next call reuses.
func (s *SteinerScratch) SweepRow(via []*ShortestPaths, omega []float64, out *SteinerTree) ([]NodeID, error) {
	sw := &s.sweep
	if len(sw.full) != len(sw.fixed)+1 || len(via) != len(sw.fixed) || omega != nil && len(omega) != len(via) {
		return nil, fmt.Errorf("graph: row of %d trees and %d weights for the sweep over %v",
			len(via), len(omega), sw.full)
	}
	for j, sp := range via {
		if sp == nil || omega == nil && sp.Source != via[0].Source {
			return nil, fmt.Errorf("graph: row entry %d has no tree or a second root", j)
		}
	}
	r, a := &s.row, sw.at
	r.via = append(append(append(r.via[:0], via[:a]...), nil), via[a:]...)
	if r.rooted = omega == nil; !r.rooted {
		r.omega = append(append(append(r.omega[:0], omega[:a]...), 0), omega[a:]...)
	}
	r.root, r.servers = virtualTerm, r.servers[:0]
	if len(via) > 0 {
		r.root = via[0].Source
	}
	if r.rooted && slices.Contains(sw.fixed, r.root) {
		s.census.rootAtFixed++
	}
	if err := s.sweepCall(virtualTerm, r, out); err != nil {
		return nil, err
	}
	out.Terminals = append(out.Terminals[:0], sw.fixed...)
	return r.servers, nil
}

// sweepCall prices the varying terminal v, or row's virtual terminal:
// its insertion into M_F where that tree is certified to be the full
// closure's only MST, the full call otherwise.
func (s *SteinerScratch) sweepCall(v NodeID, row *steinerRow, out *SteinerTree) error {
	sw := &s.sweep
	sw.calls++
	switch {
	case sw.calls == 1:
		s.census.first++
		return s.sweepFull(v, row, out)
	case disableReducedClosure || len(sw.fixed) == 0 || row == nil && (v < 0 || v >= sw.g.NumNodes()):
		return s.sweepFull(v, row, out)
	case row == nil && slices.Contains(sw.fixed, v):
		s.census.duplicate++
		return s.sweepFull(v, row, out)
	}
	if sw.mfState == mfPending {
		s.buildFixedMST()
	}
	switch sw.mfState {
	case mfTied:
		s.census.tie++
		return s.sweepFull(v, row, out)
	case mfCut:
		return s.sweepFull(v, row, out)
	}

	// v's closure edge to each fixed terminal, by fixed index.
	a := sw.at
	s.pm = s.pm[:0]
	for j, sp := range sw.sps {
		var d float64
		if row != nil {
			k := j
			if j >= a {
				k++
			}
			d = row.weight(k, sw.fixed[j])
		} else {
			d = sp.Dist[v]
		}
		if d >= Infinity {
			return s.sweepFull(v, row, out) // the full call names the pair
		}
		s.pm = append(s.pm, pathMax{w: d, edge: int32(len(sw.sps) + j)})
	}
	if !s.insertVarying() {
		// A tie here usually leaves the full closure's MST tied too, so
		// the full call goes straight to heap Prim on the closure.
		s.census.tie++
		sw.full[sw.slot] = v
		return steinerKMB(sw.g, sw.full, sw.fullSPs, row, s, out, false)
	}
	s.census.certified++
	s.terms = append(append(append(s.terms[:0], sw.fixed[:a]...), v), sw.fixed[a:]...)
	s.dedupSPs = append(append(append(s.dedupSPs[:0], sw.sps[:a]...), nil), sw.sps[a:]...)
	out.reset(s.terms)
	return s.expandAndPrune(sw.g, row, out)
}

// insertVarying inserts the varying terminal into M_F (Chin and Houck,
// JCSS 1978), given its closure edges in s.pm, and writes the surviving
// |F| edges to s.pairs, numbered as the full call numbers the deduped
// terminals (v at sw.at). It walks M_F children first, keeping in pm[x]
// the heaviest edge on x's path to v in the tree built so far; a child
// y's edge to x closes a cycle through pm[x] and y's path, and the
// heavier of the two maxima leaves. Each edge dropped is then the strict
// maximum of a cycle of M_F plus v's edges and lies in no MST of it, so
// the |F| survivors are its only MST. A tie anywhere in that argument —
// two equal maxima, or a maximum the path attains twice — returns false.
func (s *SteinerScratch) insertVarying() bool {
	sw := &s.sweep
	pm := s.pm
	dropped := append(s.dropped[:0], make([]bool, 2*len(pm))...)
	s.dropped = dropped
	for i := len(sw.mfOrder) - 1; i > 0; i-- {
		y := sw.mfOrder[i]
		x := sw.mf[y].parent
		b := pathMax{w: sw.mf[y].w, edge: y}
		switch p := pm[y]; {
		case p.w > b.w:
			b = p
		case p.w == b.w:
			b.tied = true
		}
		a := pm[x]
		if a.w == b.w {
			return false
		}
		if a.w > b.w {
			a, b = b, a
		}
		if b.tied {
			return false
		}
		dropped[b.edge] = true
		pm[x] = a
	}
	at := int32(sw.at)
	idx := func(j int32) int32 {
		if j >= at {
			return j + 1
		}
		return j
	}
	s.pairs = s.pairs[:0]
	for j := range pm {
		k := idx(int32(j))
		if !dropped[len(pm)+j] {
			s.pairs = append(s.pairs, pair(at, k))
		}
		if p := sw.mf[j].parent; p >= 0 && !dropped[j] {
			s.pairs = append(s.pairs, pair(idx(p), k))
		}
	}
	return true
}

// sweepFull runs the full call: the KMB pipeline over the caller's
// fixed terminals with v in its slot and no tree for it.
func (s *SteinerScratch) sweepFull(v NodeID, row *steinerRow, out *SteinerTree) error {
	sw := &s.sweep
	sw.full[sw.slot] = v
	return steinerKMB(sw.g, sw.full, sw.fullSPs, row, s, out, true)
}

// buildFixedMST computes M_F, the MST of the fixed terminals' metric
// closure, and records whether the sweep may use it.
func (s *SteinerScratch) buildFixedMST() {
	sw := &s.sweep
	d := &s.dense
	sw.mfState = d.run(sw.fixed, sw.sps, nil)
	switch sw.mfState {
	case mfTied:
		s.census.denseTied++
		return
	case mfCut:
		return
	}
	s.census.denseCertified++
	// Root M_F at fixed[0], Prim's start: each index joins the tree in
	// pop order, below the end its edge leaves from.
	sw.mf = append(sw.mf, make([]mfLink, len(sw.fixed))...)
	sw.mf[0].parent = -1
	for _, c := range d.order[1:] {
		sw.mf[c] = mfLink{parent: d.parent[c], w: d.key[c]}
	}
	sw.mfOrder = append(sw.mfOrder, d.order...)
}

// denseMST is Prim's state over a metric closure of k terminals read in
// place (run), by closure index.
type denseMST struct {
	key    []float64 // the lightest edge from the tree to each index
	parent []int32   // that edge's end in the tree
	order  []int32   // indices in pop order, 0 first; each later one's edge is (parent, key)
	rest   []int32   // indices not yet popped
}

// run computes the MST of the metric closure over terms (k ≥ 1) by Prim
// from index 0, O(k²) with no closure graph: for i < j it reads d(i, j) as
// the closure Graph of steinerKMB weighs edge (i, j) (closureDist). It
// applies MSTWorkspace.Prim's Unique rule and stops at its first tie —
// a popped key another reached index shares, or a relaxation equal to a
// reached key — returning mfTied, and at the first d(i, j) ≥ Infinity,
// returning mfCut. Otherwise every pop was the cut's strict minimum, so
// the MST is the closure's only one and the pop order and edges are
// those of heap Prim on the closure Graph: it returns mfUnique.
//
// Every index is reached by the first pop's relaxations. On a closure
// of shortest-path distances any unreachable pair leaves index 0's row
// with one, so a cut shows there, before any tie can.
func (d *denseMST) run(terms []NodeID, sps []*ShortestPaths, row *steinerRow) mfState {
	k := len(terms)
	d.order = d.order[:0]
	d.key = append(d.key[:0], make([]float64, k)...)
	d.parent = append(d.parent[:0], make([]int32, k)...)
	d.rest = d.rest[:0]
	for j := 1; j < k; j++ {
		d.key[j] = math.Inf(1)
		d.rest = append(d.rest, int32(j))
	}
	key, parent := d.key, d.parent
	for v := int32(0); ; {
		d.order = append(d.order, v)
		rest := d.rest
		if len(rest) == 0 {
			return mfUnique
		}
		// Relax v's edges and find the next pop in the same pass.
		best, at, tied := math.Inf(1), 0, false
		for i, w := range rest {
			dw := closureDist(terms, sps, row, int(min(v, w)), int(max(v, w)))
			if dw >= Infinity {
				return mfCut
			}
			kw := key[w]
			switch {
			case dw < kw:
				key[w], parent[w], kw = dw, v, dw
			case dw == kw:
				return mfTied
			}
			switch {
			case kw < best:
				best, at, tied = kw, i, false
			case kw == best:
				tied = true
			}
		}
		if tied {
			return mfTied
		}
		v = rest[at]
		rest[at] = rest[len(rest)-1]
		d.rest = rest[:len(rest)-1]
	}
}

// steinerKMB is the shared KMB pipeline, writing into out (whose slices
// it reuses). sps, when non-nil, supplies the per-terminal shortest-path
// trees (parallel to terminals); otherwise they are computed into the
// scratch. A sweep's full call leaves one terminal without a tree: its
// closure row is read from the other terminals' trees, or from row when
// that terminal is the virtual one (virtualTerm), which is never
// deduplicated. dense false skips step 2's dense Prim for heap Prim on
// the closure Graph, which returns the same MST whenever the dense Prim
// would certify one.
func steinerKMB(
	g *Graph, terminals []NodeID, sps []*ShortestPaths, row *steinerRow, s *SteinerScratch, out *SteinerTree,
	dense bool,
) error {
	n, m := g.NumNodes(), g.NumEdges()
	for _, t := range terminals {
		if (t < 0 || t >= n) && (t != virtualTerm || row == nil) {
			return fmt.Errorf("%w: terminal %d with n=%d", ErrNodeOutOfRange, t, n)
		}
	}
	s.ensure(n, m)
	gen := s.nextGen()

	// Dedup terminals preserving first-occurrence order, carrying the
	// supplied shortest-path trees along in lockstep.
	s.terms = s.terms[:0]
	s.dedupSPs = s.dedupSPs[:0]
	for i, v := range terminals {
		if v != virtualTerm {
			if s.nodeGen[v] == gen {
				continue
			}
			s.nodeGen[v] = gen
		}
		s.terms = append(s.terms, v)
		if sps != nil {
			sp := sps[i]
			if sp != nil && sp.Source != v {
				return fmt.Errorf("graph: shortest-path tree %d is not rooted at terminal %d", i, v)
			}
			s.dedupSPs = append(s.dedupSPs, sp)
		}
	}
	terms := s.terms
	out.reset(terms)
	if len(terms) <= 1 {
		return nil
	}

	// (1) Shortest paths from every terminal (unless supplied).
	if sps == nil {
		for len(s.sps) < len(terms) {
			s.sps = append(s.sps, new(ShortestPaths))
		}
		for i, t := range terms {
			if err := s.ws.DijkstraInto(g, t, s.sps[i]); err != nil {
				return err
			}
		}
		s.dedupSPs = append(s.dedupSPs, s.sps[:len(terms)]...)
	}

	// (2) MST of the metric closure (complete graph over terminals):
	// the dense Prim where it certifies the MST unique, else Prim on the
	// closure built, so ties break and cuts are named as there.
	s.pairs = s.pairs[:0]
	if dense {
		switch s.dense.run(terms, s.dedupSPs, row) {
		case mfUnique:
			s.census.denseCertified++
			for _, c := range s.dense.order[1:] {
				s.pairs = append(s.pairs, pair(s.dense.parent[c], c))
			}
			return s.expandAndPrune(g, row, out)
		case mfTied:
			s.census.denseTied++
		}
	}
	s.closure.Reset(len(terms))
	for i := 0; i < len(terms); i++ {
		for j := i + 1; j < len(terms); j++ {
			d := closureDist(terms, s.dedupSPs, row, i, j)
			if d >= Infinity {
				return fmt.Errorf("graph: terminals %d and %d: %w", terms[i], terms[j], ErrDisconnected)
			}
			s.closure.MustAddEdge(i, j, d)
		}
	}
	if err := s.mst.Prim(&s.closure, &s.closureMST); err != nil {
		return err
	}
	for _, id := range s.closureMST.EdgeIDs {
		e := s.closure.Edge(id)
		s.pairs = append(s.pairs, closurePair{int32(e.U), int32(e.V)})
	}
	return s.expandAndPrune(g, row, out)
}

// closureDist is the step-2 distance between terminals i and j of terms
// (sps parallel to it): read from the tree of whichever has one, i's
// when both do, or from row when the other is the virtual terminal.
func closureDist(terms []NodeID, sps []*ShortestPaths, row *steinerRow, i, j int) float64 {
	if sps[i] == nil {
		i, j = j, i
	}
	if row != nil && sps[j] == nil {
		return row.weight(i, terms[i])
	}
	return sps[i].Dist[terms[j]]
}

// expandAndPrune runs KMB steps (3)–(5) for the closure MST in s.pairs,
// in any order, and appends the tree's edges to out. With a row it also
// records the tree's entry servers in row.servers.
func (s *SteinerScratch) expandAndPrune(g *Graph, row *steinerRow, out *SteinerTree) error {
	terms, termSPs := s.terms, s.dedupSPs
	gen := s.nextGen()

	// (3) Expand each closure MST edge into its host shortest path,
	// collecting the union of host edges (stamp-deduplicated). A row's
	// virtual edge into terms[i] walks the entry tree via[i] instead and
	// notes the entry server's virtual edge.
	s.union = s.union[:0]
	s.virt = s.virt[:0]
	for _, cp := range s.pairs {
		from, to := cp.u, cp.v
		if termSPs[from] == nil {
			from, to = to, from
		}
		sp, target := termSPs[from], terms[to]
		if row != nil && termSPs[to] == nil {
			sp, target = row.via[from], terms[from]
			if !row.rooted {
				s.virt = append(s.virt, virtualEdge{node: sp.Source, w: row.omega[from]})
			}
		}
		ok := sp.VisitPathEdges(target, func(he EdgeID) bool {
			if s.edgeGen[he] != gen {
				s.edgeGen[he] = gen
				s.union = append(s.union, he)
			}
			return true
		})
		if !ok {
			return ErrDisconnected
		}
	}

	// (4) MST of the expansion subgraph. Build a compact subgraph over
	// the touched nodes to keep the MST linear in the subgraph size.
	// Iterate the union in sorted order so equal-weight MST
	// tie-breaking is deterministic. The generation is fresh since the
	// terminal dedup, so the node stamps can carry the compact IDs.
	sort.Ints(s.union)
	s.revNode = s.revNode[:0]
	localID := func(v NodeID) int32 {
		if s.nodeGen[v] == gen {
			return s.nodeOf[v]
		}
		id := int32(len(s.revNode))
		s.nodeGen[v] = gen
		s.nodeOf[v] = id
		s.revNode = append(s.revNode, v)
		return id
	}
	// First pass assigns compact IDs in edge order (matching the lazy
	// AddNode order of the map-based construction), then the subgraph
	// is built in one shot over the final node count. A row's virtual
	// terminal is the last compact node.
	for _, he := range s.union {
		e := g.Edge(he)
		localID(e.U)
		localID(e.V)
	}
	edges := len(s.union)
	if row != nil && row.rooted {
		row.anchor = localID(row.root)
	} else if row != nil {
		slices.SortFunc(s.virt, func(x, y virtualEdge) int { return cmp.Compare(x.node, y.node) })
		s.virt = slices.CompactFunc(s.virt, func(x, y virtualEdge) bool { return x.node == y.node })
		for _, ve := range s.virt {
			localID(ve.node)
		}
		row.anchor = int32(len(s.revNode))
		s.revNode = append(s.revNode, virtualTerm)
		edges += len(s.virt)
	}
	if edges == len(s.revNode)-1 {
		// The union is connected (it joins every terminal), so with one
		// edge fewer than nodes it is a tree. Each of its leaves ends a
		// path, so is a terminal (a row's entry server also has its
		// virtual edge): step 4's MST and step 5's pruning keep every
		// edge, in the sorted order emitted below.
		s.census.treeUnions++
		out.EdgeIDs = append(out.EdgeIDs, s.union...)
	} else {
		s.census.cyclicUnions++
		if err := s.pruneUnion(g, row, out); err != nil {
			return err
		}
	}
	for _, he := range out.EdgeIDs {
		out.Weight += g.Weight(he)
	}
	if row != nil && row.rooted {
		row.servers = append(row.servers, row.root)
	}
	for _, ve := range s.virt { // a subset row's surviving virtual edges
		out.Weight += ve.w
		row.servers = append(row.servers, ve.node)
	}
	return nil
}

// pruneUnion runs KMB steps (4)–(5) on a union with a cycle: Kruskal
// over the compact subgraph the node stamps describe, host edges in
// ascending order and then a row's virtual edges, followed by iterative
// removal of non-terminal leaves. It appends the surviving host edges to
// out in ascending order and keeps the surviving virtual edges in
// s.virt. Kruskal, not Prim: its choice among tied edges depends on the
// sequence of edge weights alone, not on node numbering or a start
// node, so the compact subgraph breaks ties as the same edge sequence
// over host node IDs would.
func (s *SteinerScratch) pruneUnion(g *Graph, row *steinerRow, out *SteinerTree) error {
	nl := len(s.revNode)
	s.sub.Reset(nl)
	for _, he := range s.union {
		e := g.Edge(he)
		s.sub.MustAddEdge(int(s.nodeOf[e.U]), int(s.nodeOf[e.V]), e.W)
	}
	for _, ve := range s.virt {
		s.sub.MustAddEdge(int(row.anchor), int(s.nodeOf[ve.node]), ve.w)
	}
	if err := s.mst.Kruskal(&s.sub, &s.subMST); err != nil {
		return err
	}

	// (5) Prune non-terminal leaves iteratively, on the compact IDs.
	if cap(s.isTerm) < nl {
		s.isTerm = make([]bool, nl)
		s.deg = make([]int32, nl)
	}
	isTerm := s.isTerm[:nl]
	deg := s.deg[:nl]
	for i := 0; i < nl; i++ {
		isTerm[i] = false
		deg[i] = 0
	}
	for _, t := range s.terms {
		if t != virtualTerm {
			isTerm[s.nodeOf[t]] = true
		}
	}
	if row != nil {
		isTerm[row.anchor] = true
	}
	if cap(s.incident) < nl {
		s.incident = append(s.incident[:cap(s.incident)], make([][]int32, nl-cap(s.incident))...)
	}
	incident := s.incident[:nl]
	for i := 0; i < nl; i++ {
		incident[i] = incident[i][:0]
	}
	ne := s.sub.NumEdges()
	if cap(s.alive) < ne {
		s.alive = make([]bool, ne)
	}
	alive := s.alive[:ne]
	for i := range alive {
		alive[i] = false
	}
	for _, sid := range s.subMST.EdgeIDs {
		alive[sid] = true
		e := s.sub.Edge(sid)
		deg[e.U]++
		deg[e.V]++
		incident[e.U] = append(incident[e.U], int32(sid))
		incident[e.V] = append(incident[e.V], int32(sid))
	}
	s.queue = s.queue[:0]
	for v := 0; v < nl; v++ {
		if deg[v] == 1 && !isTerm[v] {
			s.queue = append(s.queue, int32(v))
		}
	}
	for len(s.queue) > 0 {
		v := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		for _, sid := range incident[v] {
			if !alive[sid] {
				continue
			}
			alive[sid] = false
			e := s.sub.Edge(int(sid))
			other := int32(e.U)
			if other == v {
				other = int32(e.V)
			}
			deg[v]--
			deg[other]--
			if deg[other] == 1 && !isTerm[other] {
				s.queue = append(s.queue, other)
			}
		}
	}
	// Emit host edges in sorted host-ID order so downstream float
	// accumulations (tree weights, costs) are bit-deterministic across
	// runs: sub-edge i < len(union) is union[i], and the union is
	// sorted. The virtual edges follow, in server order.
	nu := len(s.union)
	kept := s.virt[:0]
	for sid, ok := range alive {
		switch {
		case !ok:
		case sid < nu:
			out.EdgeIDs = append(out.EdgeIDs, s.union[sid])
		default:
			kept = append(kept, s.virt[sid-nu])
		}
	}
	s.virt = kept
	return nil
}

// dedupNodes returns the input nodes with duplicates removed,
// preserving first-occurrence order.
func dedupNodes(in []NodeID) []NodeID {
	seen := make(map[NodeID]struct{}, len(in))
	out := make([]NodeID, 0, len(in))
	for _, v := range in {
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
