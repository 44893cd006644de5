package graph

// indexedHeap is a binary min-heap keyed by float64 priorities with
// decrease-key support, specialised for Dijkstra over dense integer
// node IDs. Every shortest-path tree, repair and Prim MST in the
// repository runs on it, so its layout is chosen for the cache rather
// than for generality:
//
//   - entries carry their key inline ({key, node}), so a sift compares
//     keys without an indirection through a per-node priority array;
//   - sifts move a hole and write the moving entry once at the end
//     instead of swapping at every level.
//
// The shape stays binary on purpose: which of several equal-key nodes
// pops first decides which of several equal-cost trees the planners
// build, and unit (SP) or equal (idle substrate) weights tie all the
// time. up and down make exactly the comparisons a swap-based binary
// heap makes — strict less, left child on a tie between children — so
// every pop order, and with it every decision, is unchanged. A 4-ary
// heap was measured faster but breaks ties differently.
//
// Node IDs and positions are int32: the substrates here are far below
// 2³¹ nodes, and the narrower position index halves its footprint.
type indexedHeap struct {
	items []heapEntry // heap order: children of slot i are 2i+1 and 2i+2
	pos   []int32     // slot of node in items, -1 if absent
}

type heapEntry struct {
	key  float64
	node int32
}

// newIndexedHeap returns an empty heap able to hold node IDs in [0, n).
func newIndexedHeap(n int) *indexedHeap {
	h := new(indexedHeap)
	h.reset(n)
	return h
}

// reset prepares the heap for a fresh run over node IDs in [0, n),
// reusing the existing arenas when they are large enough. Abandoned
// entries from an aborted previous run are cleared.
func (h *indexedHeap) reset(n int) {
	for _, e := range h.items {
		h.pos[e.node] = -1
	}
	h.items = h.items[:0]
	if len(h.pos) < n {
		h.items = make([]heapEntry, 0, n)
		h.pos = make([]int32, n)
		for i := range h.pos {
			h.pos[i] = -1
		}
	}
}

// Len reports the number of queued nodes.
func (h *indexedHeap) Len() int { return len(h.items) }

// Contains reports whether v is currently queued.
func (h *indexedHeap) Contains(v NodeID) bool { return h.pos[v] >= 0 }

// PushOrDecrease inserts v with priority p, or lowers v's priority to p
// when v is already queued with a higher priority. It reports whether
// the heap changed and, when it did not, whether p tied v's queued
// priority (Prim's uniqueness certificate reads that).
func (h *indexedHeap) PushOrDecrease(v NodeID, p float64) (changed, tie bool) {
	i := int(h.pos[v])
	if i >= 0 {
		if k := h.items[i].key; p >= k {
			return false, p == k
		}
	} else {
		i = len(h.items)
		h.items = append(h.items, heapEntry{})
	}
	h.up(i, heapEntry{key: p, node: int32(v)})
	return true, false
}

// Pop removes and returns the node with the minimum priority.
func (h *indexedHeap) Pop() (NodeID, float64) {
	top := h.items[0]
	h.pos[top.node] = -1
	last := len(h.items) - 1
	if last > 0 {
		h.down(h.items[last], last)
	}
	h.items = h.items[:last]
	return NodeID(top.node), top.key
}

// up places e by moving the hole at slot i towards the root past every
// parent with a strictly larger key.
func (h *indexedHeap) up(i int, e heapEntry) {
	items, pos := h.items, h.pos
	for i > 0 {
		parent := (i - 1) >> 1
		pe := items[parent]
		if !(e.key < pe.key) {
			break
		}
		items[i] = pe
		pos[pe.node] = int32(i)
		i = parent
	}
	items[i] = e
	pos[e.node] = int32(i)
}

// down re-seats e, the entry leaving slot n (the last live slot), by
// moving the hole at the root towards the leaves of items[:n] past
// every strictly smaller child. The right child is taken only when it
// is strictly smaller than the left, as in a swap-based sift.
func (h *indexedHeap) down(e heapEntry, n int) {
	items, pos := h.items[:n], h.pos
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		best, bk := c, items[c].key
		if r := c + 1; r < n {
			if k := items[r].key; k < bk {
				best, bk = r, k
			}
		}
		if !(bk < e.key) {
			break
		}
		m := items[best]
		items[i] = m
		pos[m.node] = int32(i)
		i = best
	}
	items[i] = e
	pos[e.node] = int32(i)
}
