package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nfvmcast"
)

func TestRunGEANT(t *testing.T) {
	err := run([]string{
		"-topology", "geant", "-source", "17", "-dest", "1,5,30",
		"-chain", "NAT,Firewall",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWaxmanAllAlgorithms(t *testing.T) {
	for _, alg := range []string{"appro", "oneserver", "nearest"} {
		err := run([]string{
			"-topology", "waxman", "-nodes", "40", "-seed", "3",
			"-source", "0", "-dest", "5,9", "-algorithm", alg, "-k", "2",
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                // missing -dest
		{"-dest", "1", "-topology", "x"},  // unknown topology
		{"-dest", "1,banana"},             // bad destination list
		{"-dest", "1", "-chain", "Bogus"}, // unknown function
		{"-dest", "1", "-algorithm", "magic"},
		{"-dest", "999"}, // destination out of range on GEANT
		{"-nonsense-flag"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("case %d (%v): error expected", i, args)
		}
	}
}

// TestSolveReportsMetrics: with -metrics-addr, the engine path
// registers its admission instruments on the served registry.
func TestSolveReportsMetrics(t *testing.T) {
	nw, err := nfvmcast.NewNetwork(nfvmcast.GEANT(), nfvmcast.DefaultNetworkConfig(), rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	reg := nfvmcast.NewMetricsRegistry()
	res, err := solve("onlinecp", 3, reg, nw, &nfvmcast.Request{
		ID: 1, Source: 17, Destinations: []nfvmcast.NodeID{1, 5, 30},
		BandwidthMbps: 100, Chain: nfvmcast.MustChain(nfvmcast.NAT, nfvmcast.Firewall),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.close()
	if !res.allocated {
		t.Fatal("engine solve did not allocate")
	}
	key := `nfv_admitted_total{policy="Online_CP"}`
	if got := reg.CounterValues()[key]; got != 1 {
		t.Fatalf("%s = %d, want 1 (counters %v)", key, got, reg.CounterValues())
	}
}

func TestParseChainAliases(t *testing.T) {
	c, err := parseChain("lb,ids")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("chain length = %d, want 2", c.Len())
	}
}

func TestRunDOTOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.dot")
	err := run([]string{
		"-topology", "geant", "-source", "17", "-dest", "1,5", "-dot", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph pseudomulticast") {
		t.Fatal("DOT output missing header")
	}
}

// TestAlgorithmHelp pins the discoverability contract: -algorithm help
// works without any other flag and the table names every registry
// policy plus the offline one-shot algorithms and the onlinecp alias.
func TestAlgorithmHelp(t *testing.T) {
	if err := run([]string{"-algorithm", "help"}); err != nil {
		t.Fatalf("-algorithm help must not require -dest: %v", err)
	}
	var buf strings.Builder
	printAlgorithms(&buf)
	out := buf.String()
	for _, spec := range nfvmcast.Planners() {
		if !strings.Contains(out, spec.Name) {
			t.Errorf("help table missing registry policy %q:\n%s", spec.Name, out)
		}
		if spec.Description != "" && !strings.Contains(out, spec.Description) {
			t.Errorf("help table missing description for %q", spec.Name)
		}
	}
	for _, word := range []string{"appro", "oneserver", "nearest", "onlinecp"} {
		if !strings.Contains(out, word) {
			t.Errorf("help table missing %q:\n%s", word, out)
		}
	}
}
