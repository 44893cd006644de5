package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nfvmcast/internal/core"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
	// No experiment behaves like -list.
	if err := run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "nope", "-quick"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunQuickExperimentWithJSON(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-experiment", "ablation-evaluator",
		"-requests", "3", "-quick", "-json", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "ablation-evaluator.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty JSON dump")
	}
}

// TestRecoverWritesOnlyItsFigures checks that the recovery experiment's
// -json output is its figure file and nothing else.
func TestRecoverWritesOnlyItsFigures(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-experiment", "ext-recover", "-quick", "-json", dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != "ext-recover.json" {
		t.Fatalf("-json wrote %v, want exactly [ext-recover.json]", names)
	}
}

func TestRunReplicated(t *testing.T) {
	err := run([]string{
		"-experiment", "ablation-evaluator",
		"-requests", "2", "-quick", "-reps", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScenarioList(t *testing.T) {
	if err := run([]string{"-scenario-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioByName(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scenario", "multi-tenant", "-json", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "scenario-multi-tenant.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty scenario result JSON")
	}
}

func TestScenarioFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.json")
	doc := `{
		"name": "tiny",
		"topology": {"name": "geant"},
		"policy": "SP",
		"seed": 2,
		"horizonHours": 0.5,
		"tenants": [{
			"name": "a",
			"phases": [{"kind": "steady", "startHours": 0, "endHours": 0.5, "ratePerHour": 20}]
		}]
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path}); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioUnknownName(t *testing.T) {
	if err := run([]string{"-scenario", "no-such-scenario"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestScenarioShardOverride forces a library scenario through the
// shard router (and back down to a single engine) from the CLI.
func TestScenarioShardOverride(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scenario", "multi-tenant", "-shards", "2", "-json", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "scenario-multi-tenant.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"shards": 2`) {
		t.Fatal("result JSON missing shard count")
	}
	// Forcing shards onto the rule-limited scenario must surface the
	// config validator's incompatibility error, not crash.
	if err := run([]string{"-scenario", "rule-limited", "-shards", "2"}); err == nil {
		t.Fatal("sharded rule-limited scenario accepted")
	}
}

// TestScenarioTenantFilter restricts a run to one tenant class and
// rejects names the scenario does not define.
func TestScenarioTenantFilter(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scenario", "multi-tenant", "-tenant", "bronze", "-json", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "scenario-multi-tenant.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"gold"`) {
		t.Fatal("tenant filter leaked another class's sessions")
	}
	if err := run([]string{"-scenario", "multi-tenant", "-tenant", "nope"}); err == nil {
		t.Fatal("unknown tenant accepted")
	}
}

// TestScenarioListShowsRegistryPolicies pins -scenario-list's second
// table: every planner-registry policy appears with its description,
// so scenario authors discover valid "policy" values from the CLI.
func TestScenarioListShowsRegistryPolicies(t *testing.T) {
	var buf strings.Builder
	listScenarios(&buf)
	out := buf.String()
	if !strings.Contains(out, "planner registry") {
		t.Fatalf("policy table header missing:\n%s", out)
	}
	for _, spec := range core.Planners() {
		if !strings.Contains(out, spec.Name) {
			t.Errorf("-scenario-list missing registry policy %q", spec.Name)
		}
		if spec.Description != "" && !strings.Contains(out, spec.Description) {
			t.Errorf("-scenario-list missing description for %q", spec.Name)
		}
	}
}
