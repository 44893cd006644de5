package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// swapHeap is the parent commit's indexed binary heap, kept as an
// oracle: node IDs in heap order, priorities in a per-node array, and
// swap-based sifts. Which equal-key node it pops first is the tie order
// every planner decision was recorded under.
type swapHeap struct {
	items []NodeID
	prio  []float64
	pos   []int
}

func newSwapHeap(n int) *swapHeap {
	h := &swapHeap{prio: make([]float64, n), pos: make([]int, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *swapHeap) pushOrDecrease(v NodeID, p float64) bool {
	if i := h.pos[v]; i >= 0 {
		if p >= h.prio[v] {
			return false
		}
		h.prio[v] = p
		h.up(i)
		return true
	}
	h.prio[v], h.pos[v] = p, len(h.items)
	h.items = append(h.items, v)
	h.up(len(h.items) - 1)
	return true
}

func (h *swapHeap) pop() (NodeID, float64) {
	v := h.items[0]
	p := h.prio[v]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items, h.pos[v] = h.items[:last], -1
	if last > 0 {
		h.down(0)
	}
	return v, p
}

func (h *swapHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i]], h.pos[h.items[j]] = i, j
}

func (h *swapHeap) less(i, j int) bool { return h.prio[h.items[i]] < h.prio[h.items[j]] }

func (h *swapHeap) up(i int) {
	for i > 0 && h.less(i, (i-1)/2) {
		h.swap(i, (i-1)/2)
		i = (i - 1) / 2
	}
}

func (h *swapHeap) down(i int) {
	n := len(h.items)
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && h.less(l, s) {
			s = l
		}
		if r < n && h.less(r, s) {
			s = r
		}
		if s == i {
			return
		}
		h.swap(i, s)
		i = s
	}
}

// checkHeap asserts the heap invariants: every slot's key is no
// smaller than its parent's, pos and items are mutual inverses, every
// absent node has pos -1, and each queued key equals the reference's.
func checkHeap(t *testing.T, h *indexedHeap, ref map[NodeID]float64, n int) {
	t.Helper()
	if len(h.items) != len(ref) {
		t.Fatalf("heap holds %d entries, reference %d", len(h.items), len(ref))
	}
	for i, e := range h.items {
		if i > 0 {
			if p := h.items[(i-1)/2]; e.key < p.key {
				t.Fatalf("slot %d key %v below parent slot %d key %v", i, e.key, (i-1)/2, p.key)
			}
		}
		if int(h.pos[e.node]) != i {
			t.Fatalf("pos[%d] = %d, entry sits at slot %d", e.node, h.pos[e.node], i)
		}
		if k, ok := ref[NodeID(e.node)]; !ok || k != e.key {
			t.Fatalf("node %d queued with key %v, reference (%v, %v)", e.node, e.key, k, ok)
		}
	}
	for v := 0; v < n; v++ {
		if _, ok := ref[v]; !ok && h.pos[v] != -1 {
			t.Fatalf("absent node %d has pos %d", v, h.pos[v])
		}
	}
}

// TestIndexedHeapMatchesSort drives the heap with random push,
// decrease, no-op increase and pop sequences against a map reference:
// every pop must return a minimum key of the reference, and the heap
// invariants must hold after every operation. A swapHeap fed the same
// operations must pop the same node every time — integer keys in half
// the trials make ties common, so this pins the tie order. Each trial
// abandons its heap part-way (as an aborted Dijkstra would) and checks
// reset leaves it empty and reusable.
func TestIndexedHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var h indexedHeap
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(80)
		h.reset(n)
		sh := newSwapHeap(n)
		ref := map[NodeID]float64{}
		key := func() float64 {
			if trial%2 == 0 {
				return float64(rng.Intn(8))
			}
			return rng.Float64() * 100
		}
		pop := func() float64 {
			u, p := h.Pop()
			if su, _ := sh.pop(); su != u {
				t.Fatalf("trial %d: Pop = node %d (key %v), swap-based reference pops %d", trial, u, p, su)
			}
			want, ok := ref[u]
			if !ok || want != p {
				t.Fatalf("trial %d: Pop = (%d, %v), reference has (%v, %v)", trial, u, p, want, ok)
			}
			delete(ref, u)
			return p
		}
		ops := rng.Intn(6 * n)
		for op := 0; op < ops; op++ {
			v := rng.Intn(n)
			switch r := rng.Intn(10); {
			case r < 6: // push or decrease
				p := key()
				old, queued := ref[v]
				changed, tie := h.PushOrDecrease(v, p)
				sh.pushOrDecrease(v, p)
				if want, wantTie := !queued || p < old, queued && p == old; changed != want || tie != wantTie {
					t.Fatalf("trial %d: PushOrDecrease(%d, %v) = (%v, %v), want (%v, %v) (queued %v at %v)",
						trial, v, p, changed, tie, want, wantTie, queued, old)
				}
				if changed {
					ref[v] = p
				}
			default: // pop
				if h.Len() == 0 {
					continue
				}
				p := pop()
				for _, k := range ref {
					if k < p {
						t.Fatalf("trial %d: Pop returned key %v with %v still queued", trial, p, k)
					}
				}
			}
			checkHeap(t, &h, ref, n)
			if _, queued := ref[v]; h.Contains(v) != queued {
				t.Fatalf("trial %d: Contains(%d) disagrees with reference", trial, v)
			}
		}
		// Pops interleaved with pushes need not be sorted overall, but
		// draining what is left must come out in sorted order.
		if rng.Intn(2) == 0 {
			var drained []float64
			for h.Len() > 0 {
				drained = append(drained, pop())
				checkHeap(t, &h, ref, n)
			}
			if !sort.Float64sAreSorted(drained) {
				t.Fatalf("trial %d: drain not sorted: %v", trial, drained)
			}
		}
		// Abandon whatever is left; reset must clear it.
		h.reset(n)
		checkHeap(t, &h, map[NodeID]float64{}, n)
	}
}

// dijkstraBinaryHeapReference is the parent commit's DijkstraInto kept
// as an oracle: the swap-based heap, the VisitNeighbors closure, and
// the stale-entry check. It returns distances, parent nodes, parent
// edges and depths.
func dijkstraBinaryHeapReference(g *Graph, src NodeID) ([]float64, []NodeID, []EdgeID, []int32) {
	n := g.NumNodes()
	dist, parent, parentEdge, depth := make([]float64, n), make([]NodeID, n), make([]EdgeID, n), make([]int32, n)
	for i := range dist {
		dist[i], parent[i], parentEdge[i], depth[i] = Infinity, -1, -1, -1
	}
	h := newSwapHeap(n)
	dist[src], depth[src] = 0, 0
	h.pushOrDecrease(src, 0)
	for len(h.items) > 0 {
		u, du := h.pop()
		if du > dist[u] {
			continue
		}
		g.VisitNeighbors(u, func(to NodeID, id EdgeID, w float64) bool {
			if nd := du + w; nd < dist[to] {
				dist[to], parent[to], parentEdge[to], depth[to] = nd, u, id, depth[u]+1
				h.pushOrDecrease(to, nd)
			}
			return true
		})
	}
	return dist, parent, parentEdge, depth
}

// TestDijkstraMatchesBinaryHeapReference demands DijkstraInto (inline-
// key hole-sift heap, int32 tree columns) reproduce the swap-based
// reference bit for bit — distances, parents, parent edges, depths —
// on random graphs with several components, parallel edges and
// self-loops, through one reused workspace and result (so stale state
// from a larger earlier graph would show). A third of the trials use
// continuous weights, a third small integers and a third unit weights
// (the SP planner's hop count), where equal-cost paths are everywhere
// and the tree depends on the heap's tie order.
func TestDijkstraMatchesBinaryHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(250))
	var ws DijkstraWorkspace
	var sp ShortestPaths
	for trial := 0; trial < 300; trial++ {
		weight := func() float64 {
			switch trial % 3 {
			case 0:
				return rng.Float64() * 10
			case 1:
				return float64(rng.Intn(4))
			}
			return 1
		}
		n := 1 + rng.Intn(120)
		g := New(n)
		comps := 1 + rng.Intn(3) // nodes v ≡ c (mod comps) form component c
		for v := comps; v < n; v++ {
			g.MustAddEdge(v, v-comps*(1+rng.Intn(v/comps)), weight())
		}
		for i := rng.Intn(2 * n); i > 0; i-- {
			u := rng.Intn(n)
			v := u + comps*rng.Intn((n-u+comps-1)/comps) // same component; v == u is a self-loop
			g.MustAddEdge(u, v, weight())
			if rng.Intn(4) == 0 {
				g.MustAddEdge(v, u, weight()) // parallel edge
			}
		}
		src := rng.Intn(n)
		if err := ws.DijkstraInto(g, src, &sp); err != nil {
			t.Fatal(err)
		}
		dist, parent, parentEdge, depth := dijkstraBinaryHeapReference(g, src)
		for v := 0; v < n; v++ {
			if math.Float64bits(sp.Dist[v]) != math.Float64bits(dist[v]) {
				t.Fatalf("trial %d: Dist[%d] = %v, reference %v", trial, v, sp.Dist[v], dist[v])
			}
			if sp.Parent(v) != parent[v] || EdgeID(sp.parentEdge[v]) != parentEdge[v] || sp.Depth(v) != int(depth[v]) {
				t.Fatalf("trial %d: node %d tree (%d, %d, %d), reference (%d, %d, %d)", trial, v,
					sp.Parent(v), sp.parentEdge[v], sp.Depth(v), parent[v], parentEdge[v], depth[v])
			}
		}
	}
}
