package core

// Fuzz coverage for the subset enumerator the parallel candidate
// evaluation is built on: collectCandidates assumes forEachSubset
// visits every subset of size <= k exactly once in a fixed order
// (sizes ascending, lexicographic within a size) and honours the
// early-stop return, so those properties are fuzzed here against
// independent oracles.

import (
	"fmt"
	"testing"

	"nfvmcast/internal/graph"
)

// fuzzItems derives a distinct, non-contiguous item list so index
// mix-ups cannot masquerade as values.
func fuzzItems(n int) []graph.NodeID {
	items := make([]graph.NodeID, n)
	for i := range items {
		items[i] = graph.NodeID(3*i + 5)
	}
	return items
}

func subsetKey(s []graph.NodeID) string { return fmt.Sprint(s) }

func FuzzForEachSubset(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(0))
	f.Add(uint8(0), uint8(3), uint16(1))
	f.Add(uint8(7), uint8(7), uint16(5))
	f.Add(uint8(10), uint8(1), uint16(2))
	f.Add(uint8(9), uint8(200), uint16(40))
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8, stopRaw uint16) {
		n := int(nRaw % 12) // keep C(n, k) enumerable
		k := int(kRaw % 14) // deliberately allowed to exceed n
		items := fuzzItems(n)

		seen := make(map[string]int)
		var order [][]graph.NodeID
		forEachSubset(items, k, func(s []graph.NodeID) bool {
			cp := append([]graph.NodeID(nil), s...)
			seen[subsetKey(cp)]++
			order = append(order, cp)
			return true
		})

		// Every visited subset is non-empty, within the size bound,
		// strictly increasing (so: distinct elements drawn from items
		// in their original order), and visited exactly once.
		pos := make(map[graph.NodeID]int, n)
		for i, v := range items {
			pos[v] = i
		}
		for key, count := range seen {
			if count != 1 {
				t.Fatalf("n=%d k=%d: subset %s visited %d times", n, k, key, count)
			}
		}
		for _, s := range order {
			if len(s) == 0 || (k >= 0 && len(s) > k) {
				t.Fatalf("n=%d k=%d: subset %v has invalid size", n, k, s)
			}
			for i := 1; i < len(s); i++ {
				if pos[s[i-1]] >= pos[s[i]] {
					t.Fatalf("n=%d k=%d: subset %v not in item order", n, k, s)
				}
			}
		}

		// Exactly-once over the whole space: the count matches the
		// closed-form oracle, so nothing was skipped either.
		want := 0
		if k >= 1 {
			want = countSubsets(n, k)
		}
		if len(seen) != want {
			t.Fatalf("n=%d k=%d: enumerated %d distinct subsets, want %d", n, k, len(seen), want)
		}

		// Deterministic order: sizes ascending, lexicographic by item
		// position within a size. The parallel tie-break indexes into
		// this exact order, so it is part of the contract.
		for i := 1; i < len(order); i++ {
			a, b := order[i-1], order[i]
			if len(a) > len(b) {
				t.Fatalf("n=%d k=%d: size decreased from %v to %v", n, k, a, b)
			}
			if len(a) == len(b) && !lexBefore(a, b, pos) {
				t.Fatalf("n=%d k=%d: %v emitted before %v", n, k, a, b)
			}
		}

		// Early stop: returning false after `limit` visits ends the
		// enumeration immediately.
		if want > 0 {
			limit := int(stopRaw)%want + 1
			visits := 0
			forEachSubset(items, k, func([]graph.NodeID) bool {
				visits++
				return visits < limit
			})
			if visits != limit {
				t.Fatalf("n=%d k=%d: early stop at %d visited %d subsets", n, k, limit, visits)
			}
		}
	})
}

// lexBefore reports whether a precedes b lexicographically by item
// position (equal-length slices, a != b assumed distinct).
func lexBefore(a, b []graph.NodeID, pos map[graph.NodeID]int) bool {
	for i := range a {
		if pos[a[i]] != pos[b[i]] {
			return pos[a[i]] < pos[b[i]]
		}
	}
	return false
}
