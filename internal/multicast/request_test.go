package multicast

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/nfv"
)

func validRequest() *Request {
	return &Request{
		ID:            1,
		Source:        0,
		Destinations:  []graph.NodeID{1, 2},
		BandwidthMbps: 100,
		Chain:         nfv.MustChain(nfv.Firewall),
	}
}

func TestRequestValidate(t *testing.T) {
	if err := validRequest().Validate(5); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Request)
	}{
		{"source out of range", func(r *Request) { r.Source = 9 }},
		{"negative source", func(r *Request) { r.Source = -1 }},
		{"no destinations", func(r *Request) { r.Destinations = nil }},
		{"destination out of range", func(r *Request) { r.Destinations = []graph.NodeID{7} }},
		{"destination equals source", func(r *Request) { r.Destinations = []graph.NodeID{0} }},
		{"duplicate destination", func(r *Request) { r.Destinations = []graph.NodeID{1, 1} }},
		{"zero bandwidth", func(r *Request) { r.BandwidthMbps = 0 }},
		{"negative bandwidth", func(r *Request) { r.BandwidthMbps = -5 }},
		{"empty chain", func(r *Request) { r.Chain = nfv.Chain{} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := validRequest()
			tt.mutate(r)
			if err := r.Validate(5); err == nil {
				t.Fatalf("%s accepted", tt.name)
			}
		})
	}
}

func TestRequestComputeDemand(t *testing.T) {
	r := validRequest()
	want := r.Chain.DemandMHz(r.BandwidthMbps)
	if got := r.ComputeDemandMHz(); got != want {
		t.Fatalf("demand = %v, want %v", got, want)
	}
}

func TestRequestClone(t *testing.T) {
	r := validRequest()
	c := r.Clone()
	c.Destinations[0] = 3
	c.Source = 4
	if r.Destinations[0] != 1 || r.Source != 0 {
		t.Fatal("Clone shares state with original")
	}
}

func TestGeneratorValidation(t *testing.T) {
	good := DefaultGeneratorConfig()
	if _, err := NewGenerator(10, good, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewGenerator(1, good, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	bad := good
	bad.DestRatio = 0
	if _, err := NewGenerator(10, bad, 1); err == nil {
		t.Fatal("ratio 0 accepted")
	}
	bad = good
	bad.DestRatio = 1.5
	if _, err := NewGenerator(10, bad, 1); err == nil {
		t.Fatal("ratio > 1 accepted")
	}
	bad = good
	bad.BandwidthRangeMbps = [2]float64{0, 10}
	if _, err := NewGenerator(10, bad, 1); err == nil {
		t.Fatal("zero bandwidth floor accepted")
	}
	bad = good
	bad.BandwidthRangeMbps = [2]float64{100, 50}
	if _, err := NewGenerator(10, bad, 1); err == nil {
		t.Fatal("inverted bandwidth range accepted")
	}
	bad = good
	bad.ChainLength = [2]int{0, 2}
	if _, err := NewGenerator(10, bad, 1); err == nil {
		t.Fatal("chain length 0 accepted")
	}
	bad = good
	bad.DestRatioRange = [2]float64{0.3, 0.1}
	if _, err := NewGenerator(10, bad, 1); err == nil {
		t.Fatal("inverted ratio range accepted")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, err := NewGenerator(30, DefaultGeneratorConfig(), 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(30, DefaultGeneratorConfig(), 77)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra.Source != rb.Source || ra.BandwidthMbps != rb.BandwidthMbps ||
			len(ra.Destinations) != len(rb.Destinations) || !ra.Chain.Equal(rb.Chain) {
			t.Fatalf("request %d differs between equal-seed generators", i)
		}
	}
}

func TestGeneratorBatch(t *testing.T) {
	g, err := NewGenerator(20, DefaultGeneratorConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.Batch(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 15 {
		t.Fatalf("batch = %d requests, want 15", len(reqs))
	}
	for i, r := range reqs {
		if r.ID != i+1 {
			t.Fatalf("request %d has ID %d, want sequential", i, r.ID)
		}
	}
}

func TestPropertyGeneratedRequestsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		cfg := DefaultGeneratorConfig()
		if rng.Intn(2) == 0 {
			cfg = OnlineGeneratorConfig()
		}
		g, err := NewGenerator(n, cfg, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			r, err := g.Next()
			if err != nil {
				return false
			}
			if r.Validate(n) != nil {
				return false
			}
			if r.BandwidthMbps < cfg.BandwidthRangeMbps[0] ||
				r.BandwidthMbps > cfg.BandwidthRangeMbps[1] {
				return false
			}
			dmax := int(0.2*float64(n) + 0.5)
			if dmax < 1 {
				dmax = 1
			}
			if len(r.Destinations) > dmax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// validateDestsReference is Request.Validate's destination check as it
// stood with a per-call map: the first destination out of range, equal
// to the source, or seen before is reported.
func validateDestsReference(r *Request, n int) error {
	seen := make(map[graph.NodeID]struct{}, len(r.Destinations))
	for _, d := range r.Destinations {
		if d < 0 || d >= n {
			return fmt.Errorf("multicast: request %d: %w (destination %d, n=%d)",
				r.ID, graph.ErrNodeOutOfRange, d, n)
		}
		if d == r.Source {
			return fmt.Errorf("multicast: request %d: destination equals source %d", r.ID, d)
		}
		if _, dup := seen[d]; dup {
			return fmt.Errorf("multicast: request %d: duplicate destination %d", r.ID, d)
		}
		seen[d] = struct{}{}
	}
	return nil
}

// TestValidateMatchesMapReference compares Validate with the map-based
// reference on 20,000 random destination lists over networks of 2 to
// 9,000 nodes (past the 4,096 the stack bitset covers): ascending or
// shuffled, with repeats, the source and out-of-range IDs mixed in.
// Accept or reject and the exact error text must agree.
func TestValidateMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	outcomes := map[string]int{}
	for trial := 0; trial < 20000; trial++ {
		n := 2 + rng.Intn(60)
		if trial%10 == 0 {
			n = 2 + rng.Intn(9000)
		}
		r := validRequest()
		r.ID, r.Source = trial, rng.Intn(n)
		k := 1 + rng.Intn(2*min(n, 60))
		dests := make([]graph.NodeID, 0, k)
		for len(dests) < k {
			d := rng.Intn(n)
			switch rng.Intn(40) {
			case 0:
				d = n + rng.Intn(3)
			case 1:
				d = -1 - rng.Intn(3)
			case 2:
				d = r.Source
			}
			if d == r.Source && rng.Intn(4) != 0 {
				continue
			}
			dests = append(dests, d)
		}
		if rng.Intn(2) == 0 {
			slices.Sort(dests)
			dests = slices.Compact(dests)
		}
		r.Destinations = dests
		got, want := r.Validate(n), validateDestsReference(r, n)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("trial %d (n=%d, source %d, dests %v): Validate = %v, reference %v",
				trial, n, r.Source, dests, got, want)
		}
		switch {
		case want == nil:
			outcomes["valid"]++
		case errors.Is(want, graph.ErrNodeOutOfRange):
			outcomes["range"]++
		case strings.Contains(want.Error(), "duplicate"):
			outcomes["duplicate"]++
		default:
			outcomes["source"]++
		}
	}
	t.Logf("outcomes %v", outcomes)
	for _, k := range []string{"valid", "range", "duplicate", "source"} {
		if outcomes[k] < 100 {
			t.Fatalf("only %d %s outcomes", outcomes[k], k)
		}
	}
}

// TestValidateLinearInDestinations: 20,000 distinct destinations and
// then a repeat of one of them, ascending or shuffled, over networks of
// 20,001 and 2^20 nodes. A quadratic check would take about 10^8 steps
// (tenths of a second); the test allows a tenth of a second for all
// four.
func TestValidateLinearInDestinations(t *testing.T) {
	const k = 20000
	start := time.Now()
	for _, n := range []int{k + 1, 1 << 20} {
		for _, shuffled := range []bool{false, true} {
			r := validRequest()
			r.Source = 0
			r.Destinations = make([]graph.NodeID, k, k+1)
			for i := range r.Destinations {
				r.Destinations[i] = 1 + i*((n-1)/k)
			}
			if shuffled {
				rand.New(rand.NewSource(1)).Shuffle(k, func(i, j int) {
					r.Destinations[i], r.Destinations[j] = r.Destinations[j], r.Destinations[i]
				})
			}
			dup := r.Destinations[k/2]
			r.Destinations = append(r.Destinations, dup)
			want := fmt.Sprintf("multicast: request %d: duplicate destination %d", r.ID, dup)
			if err := r.Validate(n); err == nil || err.Error() != want {
				t.Fatalf("n=%d shuffled=%v: Validate = %v, want %q", n, shuffled, err, want)
			}
		}
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("four validations of %d destinations took %v", k+1, el)
	}
}

// TestValidateAllocatesNothing: validating a Waxman-100 request, as
// generated (ascending) or shuffled, allocates nothing.
func TestValidateAllocatesNothing(t *testing.T) {
	gen, err := NewGenerator(100, OnlineGeneratorConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		r, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			rng.Shuffle(len(r.Destinations), func(a, b int) {
				r.Destinations[a], r.Destinations[b] = r.Destinations[b], r.Destinations[a]
			})
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if r.Validate(100) != nil {
				t.Fatal("generated request rejected")
			}
		}); allocs != 0 {
			t.Fatalf("request %d (%d destinations): %v allocs per Validate", r.ID, len(r.Destinations), allocs)
		}
	}
}
