package sdn

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
)

// The MutationVersion contract: equal (StructureVersion,
// MutationVersion) pairs on one network's lineage name bit-identical
// states; a Release that exactly undoes the Allocate just before it
// restores that Allocate's starting version; every other successful
// mutation takes a number no earlier moment of the lineage carried; and
// a rejected call changes neither the state, the version nor the undo
// record. A lineage is one network plus everything a CloneInto copied
// into another network from it: the clone continues the origin's
// history, not its undo record.

// stateBits renders everything a version must name: capacities,
// residuals and up/down state, floats as raw bits.
func stateBits(nw *Network) string {
	var b []byte
	for e := range nw.linkCap {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(nw.linkCap[e]))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(nw.linkFree[e]))
		b = append(b, boolByte(nw.LinkUp(e)))
	}
	for _, v := range nw.servers {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(nw.srvCap[v]))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(nw.srvFree[v]))
		b = append(b, boolByte(nw.ServerUp(v)))
	}
	return string(b)
}

func boolByte(x bool) byte {
	if x {
		return 1
	}
	return 0
}

// lastAlloc is the model of the undo record: the last successful
// Allocate, while nothing else has mutated the network since.
type lastAlloc struct {
	a     Allocation
	ver   uint64 // the version before the Allocate
	state string // the state before the Allocate
}

// lineage is one network's observed history.
type lineage struct {
	nw   *Network
	seen map[[2]uint64]string // (structure, mutation) version -> state
	max  uint64               // highest MutationVersion observed
	live []Allocation
	last *lastAlloc
	snap *Snapshot
}

// observe checks that the current version pair names the state it
// named before, if it named one, and records it.
func (l *lineage) observe(t *testing.T, op string) {
	t.Helper()
	k := [2]uint64{l.nw.StructureVersion(), l.nw.MutationVersion()}
	s := stateBits(l.nw)
	if old, ok := l.seen[k]; ok && old != s {
		t.Fatalf("after %s: version %v names two different states", op, k)
	}
	l.seen[k] = s
	l.max = max(l.max, k[1])
}

// fresh checks that a successful mutation other than an exact undo
// took a version the lineage never carried, and forgets the model's
// undo record.
func (l *lineage) fresh(t *testing.T, op string) {
	t.Helper()
	if v := l.nw.MutationVersion(); v <= l.max {
		t.Fatalf("after %s: version %d reissued (max so far %d)", op, v, l.max)
	}
	l.last = nil
}

// rejected runs call, which must fail, and checks it left the state,
// both versions and the undo record alone.
func (l *lineage) rejected(t *testing.T, op string, call func() error) {
	t.Helper()
	nw := l.nw
	s, sv, mv := stateBits(nw), nw.StructureVersion(), nw.MutationVersion()
	u := fmt.Sprint(nw.undo)
	if call() == nil {
		t.Fatalf("%s: accepted, want a rejection", op)
	}
	if stateBits(nw) != s || nw.StructureVersion() != sv || nw.MutationVersion() != mv || fmt.Sprint(nw.undo) != u {
		t.Fatalf("rejected %s moved the network: versions %d/%d -> %d/%d, undo %s -> %v",
			op, sv, mv, nw.StructureVersion(), nw.MutationVersion(), u, nw.undo)
	}
}

// fits reports whether every residual in s is within nw's current
// capacity: a resize since the snapshot may have shrunk one below it.
func fits(nw *Network, s *Snapshot) bool {
	for e, free := range s.linkFree {
		if free > nw.linkCap[e] {
			return false
		}
	}
	for v, free := range s.srvFree {
		if free > nw.srvCap[v] {
			return false
		}
	}
	return true
}

// sameResources reports whether a and b name the same links and
// servers, whatever the amounts.
func sameResources(a, b Allocation) bool {
	return slices.EqualFunc(a.Links, b.Links, func(x, y LinkShare) bool { return x.Edge == y.Edge }) &&
		slices.EqualFunc(a.Servers, b.Servers, func(x, y ServerShare) bool { return x.Node == y.Node })
}

// fractions are the shares of a residual a fuzzed allocation takes:
// halves and whole residuals round-trip exactly, thirds and tenths
// often leave a float residue on release.
var fractions = []float64{0.5, 1, 0.1, 1.0 / 3, 0.7}

// Operation codes of the fuzzed byte program. Each op byte's low bits
// pick the operation; its high bit sends it to the clone (once there
// is one) instead of the origin.
const (
	opAllocate = iota
	opRelease
	opReleaseClamped
	opResizeLink
	opResizeServer
	opToggleLink
	opToggleServer
	opSnapshot
	opRestore
	opCloneInto
	opRejections
	numOps
)

// FuzzMutationVersionNamesState drives random sequences of allocations,
// releases in any order (exact, clamped at capacity, or left with a
// float residue), capacity resizes, failure injection, snapshot
// restores and rejected calls over a network and a CloneInto copy of
// it, and checks the MutationVersion contract after every step.
func FuzzMutationVersionNamesState(f *testing.F) {
	base := testNet(f, 20, 7) // 31 links, servers at 4 and 17
	// Releases that must not restore a version.
	f.Add([]byte{ // another allocate in between
		opAllocate, 1, 0, 0,
		opAllocate, 1, 5, 0,
		opRelease, 0,
	})
	f.Add([]byte{ // a different bundle
		opAllocate, 1, 0, 0,
		opAllocate, 1, 5, 0,
		opRelease, 1, // exact undo of the second allocate
		opRelease, 0, // the first bundle, but the record named the second
	})
	f.Add([]byte{ // float residue: a tenth of link 0's residual
		opAllocate, 1, 0, 2,
		opRelease, 0,
	})
	// Releases that restore, plus the rest of the operations.
	f.Add([]byte{
		opAllocate, 4, 2, 1, 0, 0, // one link, one server, exact amounts
		opRelease, 0,
		opAllocate, 1, 2, 1, opRelease, 0,
		opAllocate, 1, 2, 0, opReleaseClamped, 0,
		opAllocate, 1, 2, 0, opResizeLink, 2, 1, opRelease, 0,
		opSnapshot, opAllocate, 4, 6, 0, 1, 0, opRestore,
		opResizeServer, 0, 0, opRestore, // the snapshot is above the shrunk capacity
		opAllocate, 1, 9, 0,
		opCloneInto, 0x80 | opRelease, 0, 0x80 | opAllocate, 1, 9, 0, opRelease, 0,
		opToggleLink, 2, opToggleServer, 0, opResizeServer, 1, 0,
		opRejections, 0x80 | opRejections,
	})

	f.Fuzz(func(t *testing.T, prog []byte) {
		pos := 0
		next := func() int {
			if pos >= len(prog) {
				return 0
			}
			pos++
			return int(prog[pos-1])
		}
		origin := &lineage{nw: base.Clone(), seen: map[[2]uint64]string{}}
		origin.observe(t, "start")
		var clone *lineage
		m, servers := origin.nw.NumEdges(), origin.nw.servers
		for steps := 0; pos < len(prog) && steps < 64; steps++ {
			op := next()
			l := origin
			if op&0x80 != 0 && clone != nil {
				l = clone
			}
			nw := l.nw
			kind := op & 0x7f % numOps
			name := fmt.Sprintf("step %d op %d", steps, kind)
			switch kind {
			case opAllocate: // shape byte: links = b%3, servers = b/3%2
				shape := next()
				var a Allocation
				for range shape % 3 {
					e, fr := next()%m, fractions[next()%len(fractions)]
					a.Links = append(a.Links, LinkShare{Edge: e, Mbps: nw.ResidualBandwidth(e) * fr})
				}
				slices.SortStableFunc(a.Links, func(x, y LinkShare) int { return x.Edge - y.Edge })
				a.Links = slices.CompactFunc(a.Links, func(x, y LinkShare) bool { return x.Edge == y.Edge })
				if shape/3%2 == 1 {
					v, fr := servers[next()%len(servers)], fractions[next()%len(fractions)]
					a.Servers = []ServerShare{{Node: v, MHz: nw.ResidualCompute(v) * fr}}
				}
				if nw.CanAllocate(a) != nil { // a down link or server
					l.rejected(t, name, func() error { return nw.Allocate(a) })
					break
				}
				pre := &lastAlloc{a: a, ver: nw.MutationVersion(), state: stateBits(nw)}
				if err := nw.Allocate(a); err != nil {
					t.Fatal(err)
				}
				l.fresh(t, name)
				l.last = pre
				l.live = append(l.live, a)
			case opRelease, opReleaseClamped:
				if len(l.live) == 0 {
					break
				}
				i := next() % len(l.live)
				a := l.live[i]
				if kind == opReleaseClamped {
					// Return slightly more than was taken: a resource
					// that had been full is clamped back to capacity.
					c := Allocation{}
					for _, s := range a.Links {
						c.Links = append(c.Links, LinkShare{Edge: s.Edge, Mbps: s.Mbps + 5e-7})
					}
					for _, s := range a.Servers {
						c.Servers = append(c.Servers, ServerShare{Node: s.Node, MHz: s.MHz + 5e-7})
					}
					a = c
				}
				var overflow bool
				for _, s := range a.Links {
					overflow = overflow || nw.linkFree[s.Edge]+s.Mbps > nw.linkCap[s.Edge]+1e-6
				}
				for _, s := range a.Servers {
					overflow = overflow || nw.srvFree[s.Node]+s.MHz > nw.srvCap[s.Node]+1e-6
				}
				if overflow { // a restore already returned part of it
					l.rejected(t, name, func() error { return nw.Release(a) })
					l.live = slices.Delete(l.live, i, i+1)
					break
				}
				pre := l.last
				if err := nw.Release(a); err != nil {
					t.Fatal(err)
				}
				l.live = slices.Delete(l.live, i, i+1)
				if pre != nil && sameResources(pre.a, a) && stateBits(nw) == pre.state {
					if got := nw.MutationVersion(); got != pre.ver {
						t.Fatalf("%s: exact undo took version %d, want the restored %d", name, got, pre.ver)
					}
					l.last = nil
				} else {
					l.fresh(t, name)
				}
			case opResizeLink, opResizeServer:
				id, mode := next(), next()
				var resize func(float64) error
				var capNow, free float64
				if kind == opResizeLink {
					e := id % m
					capNow, free = nw.BandwidthCap(e), nw.ResidualBandwidth(e)
					resize = func(c float64) error { return nw.SetBandwidthCap(e, c) }
				} else {
					v := servers[id%len(servers)]
					capNow, free = nw.ComputeCap(v), nw.ResidualCompute(v)
					resize = func(c float64) error { return nw.SetComputeCap(v, c) }
				}
				held := capNow - free
				if mode%3 == 0 && held > 1 {
					l.rejected(t, name, func() error { return resize(held / 2) })
					break
				}
				if err := resize(held + 1 + free*fractions[mode%len(fractions)]); err != nil {
					t.Fatal(err)
				}
				l.fresh(t, name)
			case opToggleLink:
				e := next() % m
				if err := nw.SetLinkUp(e, !nw.LinkUp(e)); err != nil {
					t.Fatal(err)
				}
				l.fresh(t, name)
			case opToggleServer:
				v := servers[next()%len(servers)]
				if err := nw.SetServerUp(v, !nw.ServerUp(v)); err != nil {
					t.Fatal(err)
				}
				l.fresh(t, name)
			case opSnapshot:
				l.snap = nw.Snapshot()
			case opRestore:
				if l.snap == nil {
					break
				}
				if !fits(nw, l.snap) {
					l.rejected(t, name+" snapshot above a shrunk capacity", func() error { return nw.Restore(l.snap) })
					break
				}
				if err := nw.Restore(l.snap); err != nil {
					t.Fatal(err)
				}
				l.fresh(t, name)
			case opCloneInto:
				if clone == nil {
					clone = &lineage{nw: new(Network)}
				}
				origin.nw.CloneInto(clone.nw)
				clone.seen = maps.Clone(origin.seen)
				clone.max = origin.max
				clone.live = slices.Clone(origin.live)
				clone.last = nil
				clone.snap = origin.snap
				l = clone
			case opRejections:
				e := next() % m
				v := servers[next()%len(servers)]
				l.rejected(t, name+" malformed allocate", func() error {
					return nw.Allocate(Allocation{Links: []LinkShare{{Edge: e, Mbps: 1}, {Edge: e, Mbps: 1}}})
				})
				l.rejected(t, name+" oversized allocate", func() error {
					return nw.Allocate(Allocation{Links: []LinkShare{{Edge: e, Mbps: nw.ResidualBandwidth(e) + 1}}})
				})
				l.rejected(t, name+" overflowing release", func() error {
					return nw.Release(Allocation{Servers: []ServerShare{{Node: v, MHz: nw.ComputeCap(v) + 1}}})
				})
				l.rejected(t, name+" invalid resize", func() error { return nw.SetComputeCap(v, -1) })
				l.rejected(t, name+" unknown link", func() error { return nw.SetLinkUp(m, false) })
				l.rejected(t, name+" short snapshot", func() error {
					return nw.Restore(RawSnapshot(nw.linkFree[:m-1], nw.srvFree))
				})
				l.rejected(t, name+" snapshot without a server", func() error {
					partial := maps.Clone(nw.srvFree)
					delete(partial, servers[len(servers)-1])
					return nw.Restore(RawSnapshot(slices.Clone(nw.linkFree), partial))
				})
			}
			l.observe(t, name)
		}
	})
}
