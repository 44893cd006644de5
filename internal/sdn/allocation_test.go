package sdn

import (
	"errors"
	"math"
	"testing"
)

// residualBits captures every residual as raw float bits plus the
// mutation epoch, so a rejected call can be shown to have left the
// network bit-identical.
func residualBits(nw *Network) []uint64 {
	out := []uint64{nw.MutationVersion()}
	for _, f := range nw.linkFree {
		out = append(out, math.Float64bits(f))
	}
	for _, v := range nw.Servers() {
		out = append(out, math.Float64bits(nw.ResidualCompute(v)))
	}
	return out
}

// TestMalformedAllocationRejected: with ID-keyed maps every resource
// appeared once by construction; slices can repeat or reorder entries,
// and a repeated link would be charged twice while each copy passed its
// own residual check. CanAllocate, Allocate and Release must refuse such
// bundles with ErrMalformedAllocation before touching any residual.
func TestMalformedAllocationRejected(t *testing.T) {
	nw := testNet(t, 30, 5)
	srv := nw.Servers()
	if len(srv) < 2 {
		t.Fatal("test network needs two servers")
	}
	// A live bundle, so every share below also passes Release's
	// per-entry overflow check on its own.
	held := Allocation{
		Links:   []LinkShare{{Edge: 0, Mbps: 40}, {Edge: 1, Mbps: 40}},
		Servers: []ServerShare{{Node: srv[0], MHz: 40}, {Node: srv[1], MHz: 40}},
	}
	if err := nw.Allocate(held); err != nil {
		t.Fatal(err)
	}
	// Each duplicate share fits the residual alone; together they do not.
	half := 0.6 * nw.ResidualBandwidth(0)
	cases := []struct {
		name string
		a    Allocation
	}{
		{"duplicate edge", Allocation{Links: []LinkShare{{Edge: 0, Mbps: 20}, {Edge: 0, Mbps: 20}}}},
		{"duplicate edge over residual", Allocation{Links: []LinkShare{{Edge: 0, Mbps: half}, {Edge: 0, Mbps: half}}}},
		{"descending pair", Allocation{Links: []LinkShare{{Edge: 1, Mbps: 10}, {Edge: 0, Mbps: 10}}}},
		{"edge out of range", Allocation{Links: []LinkShare{{Edge: nw.NumEdges(), Mbps: 1}}}},
		{"negative edge", Allocation{Links: []LinkShare{{Edge: -1, Mbps: 1}}}},
		{"duplicate server", Allocation{Servers: []ServerShare{{Node: srv[0], MHz: 10}, {Node: srv[0], MHz: 10}}}},
		{"descending servers", Allocation{Servers: []ServerShare{{Node: srv[1], MHz: 10}, {Node: srv[0], MHz: 10}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := residualBits(nw)
			check := func(op string, err error) {
				t.Helper()
				if !errors.Is(err, ErrMalformedAllocation) {
					t.Errorf("%s = %v, want ErrMalformedAllocation", op, err)
				}
				after := residualBits(nw)
				for i := range before {
					if after[i] != before[i] {
						t.Fatalf("%s changed the network (word %d: %x -> %x)", op, i, before[i], after[i])
					}
				}
			}
			check("CanAllocate", nw.CanAllocate(tc.a))
			check("Allocate", nw.Allocate(tc.a))
			check("Release", nw.Release(tc.a))
		})
	}
	if err := nw.Release(held); err != nil {
		t.Fatalf("releasing the well-formed bundle: %v", err)
	}
}
