package scenario

import (
	"strings"
	"testing"
)

// base returns a minimal valid config the error-path cases mutate.
func base() *Config {
	return &Config{
		Name:         "t",
		Topology:     TopologySpec{Name: "geant"},
		Policy:       "Online_CP",
		Seed:         1,
		HorizonHours: 2,
		Tenants: []Tenant{{
			Name:   "a",
			Phases: []Phase{{Kind: PhaseSteady, StartHours: 0, EndHours: 2, RatePerHour: 10}},
		}},
	}
}

// TestConfigValidationGoldens drives every validation path and pins
// the exact error string: the messages are part of the harness's
// contract (operators read them, the CLI prints them verbatim).
func TestConfigValidationGoldens(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"missing name", func(c *Config) { c.Name = "" },
			`scenario: config needs a name`},
		{"unknown topology", func(c *Config) { c.Topology.Name = "ring" },
			`scenario "t": unknown topology "ring"`},
		{"waxman too small", func(c *Config) { c.Topology = TopologySpec{Name: "waxman", Size: 5} },
			`scenario "t": waxman topology needs size >= 10, got 5`},
		{"unknown policy", func(c *Config) { c.Policy = "Greedy" },
			`scenario "t": unknown policy "Greedy"`},
		{"zero horizon", func(c *Config) { c.HorizonHours = 0 },
			`scenario "t": horizonHours 0 must be positive`},
		{"no tenants", func(c *Config) { c.Tenants = nil },
			`scenario "t": needs at least one tenant`},
		{"unknown recovery", func(c *Config) { c.Recovery = "heal" },
			`scenario "t": unknown recovery mode "heal"`},
		{"negative rule budget", func(c *Config) { c.MaxRulesPerSwitch = -1 },
			`scenario "t": maxRulesPerSwitch -1 must be >= 0`},
		{"negative check cadence", func(c *Config) { c.CheckEveryEvents = -2 },
			`scenario "t": checkEveryEvents -2 must be >= 0`},
		{"negative shards", func(c *Config) { c.Shards = -2 },
			`scenario "t": shards -2 must be >= 0`},
		{"sharded rule budget", func(c *Config) { c.Shards = 2; c.MaxRulesPerSwitch = 8 },
			`scenario "t": sharded runs cannot attach a rule-limited controller (shards=2, maxRulesPerSwitch=8)`},
		{"tenant without name", func(c *Config) { c.Tenants[0].Name = "" },
			`scenario "t": tenant 0 needs a name`},
		{"duplicate tenant", func(c *Config) { c.Tenants = append(c.Tenants, c.Tenants[0]) },
			`scenario "t": duplicate tenant name "a"`},
		{"tenant without phases", func(c *Config) { c.Tenants[0].Phases = nil },
			`scenario "t": tenant "a" needs at least one phase`},
		{"inverted bandwidth range", func(c *Config) { c.Tenants[0].BandwidthMbps = [2]float64{200, 100} },
			`scenario "t": tenant "a": invalid bandwidth range [200 100]`},
		{"zero chain minimum", func(c *Config) { c.Tenants[0].ChainLength = [2]int{0, 3} },
			`scenario "t": tenant "a": invalid chain length range [0 3]`},
		{"destination ratio above one", func(c *Config) { c.Tenants[0].DestRatio = [2]float64{0.5, 1.5} },
			`scenario "t": tenant "a": invalid destination ratio range [0.5 1.5]`},
		{"negative holding time", func(c *Config) { c.Tenants[0].MeanHoldingHours = -1 },
			`scenario "t": tenant "a": invalid mean holding time -1`},
		{"unknown phase kind", func(c *Config) { c.Tenants[0].Phases[0].Kind = "burst" },
			`scenario "t": tenant "a": phase 0: unknown kind "burst"`},
		{"empty phase interval", func(c *Config) { c.Tenants[0].Phases[0].EndHours = 0 },
			`scenario "t": tenant "a": phase 0: bounds [0, 0) are not an interval`},
		{"phase past horizon", func(c *Config) { c.Tenants[0].Phases[0].EndHours = 5 },
			`scenario "t": tenant "a": phase 0: endHours 5 exceeds horizon 2`},
		{"zero rate", func(c *Config) { c.Tenants[0].Phases[0].RatePerHour = 0 },
			`scenario "t": tenant "a": phase 0: ratePerHour 0 must be positive`},
		{"negative hot pool", func(c *Config) {
			c.Tenants[0].Phases[0].Kind = PhaseFlash
			c.Tenants[0].Phases[0].HotDestinations = -3
		}, `scenario "t": tenant "a": phase 0: hotDestinations -3 must be >= 0`},
		{"affinity above one", func(c *Config) {
			c.Tenants[0].Phases[0].Kind = PhaseFlash
			c.Tenants[0].Phases[0].HotAffinity = 1.5
		}, `scenario "t": tenant "a": phase 0: hotAffinity 1.5 outside [0, 1]`},
		{"amplitude above one", func(c *Config) {
			c.Tenants[0].Phases[0].Kind = PhaseDiurnal
			c.Tenants[0].Phases[0].Amplitude = 2
		}, `scenario "t": tenant "a": phase 0: amplitude 2 outside [0, 1]`},
		{"negative period", func(c *Config) {
			c.Tenants[0].Phases[0].Kind = PhaseDiurnal
			c.Tenants[0].Phases[0].PeriodHours = -6
		}, `scenario "t": tenant "a": phase 0: periodHours -6 must be >= 0`},
		{"failure past horizon", func(c *Config) {
			c.Failures = []FailureStep{{Kind: FailLink, ID: 0, AtHours: 2}}
		}, `scenario "t": failure 0: atHours 2 outside [0, 2)`},
		{"negative duration", func(c *Config) {
			c.Failures = []FailureStep{{Kind: FailLink, ID: 0, AtHours: 1, DurationHours: -1}}
		}, `scenario "t": failure 0: durationHours -1 must be >= 0`},
		{"negative link id", func(c *Config) {
			c.Failures = []FailureStep{{Kind: FailLink, ID: -1, AtHours: 1}}
		}, `scenario "t": failure 0: id -1 must be >= 0`},
		{"negative epicenter", func(c *Config) {
			c.Failures = []FailureStep{{Kind: FailRegion, Epicenter: -2, RadiusHops: 1, AtHours: 1}}
		}, `scenario "t": failure 0: epicenter -2 must be >= 0`},
		{"zero radius", func(c *Config) {
			c.Failures = []FailureStep{{Kind: FailRegion, Epicenter: 0, AtHours: 1}}
		}, `scenario "t": failure 0: radiusHops 0 must be >= 1`},
		{"empty drain", func(c *Config) {
			c.Failures = []FailureStep{{Kind: FailDrain, AtHours: 1}}
		}, `scenario "t": failure 0: drain needs servers or a positive count`},
		{"negative drain server", func(c *Config) {
			c.Failures = []FailureStep{{Kind: FailDrain, Servers: []int{3, -1}, AtHours: 1}}
		}, `scenario "t": failure 0: drain server -1 must be >= 0`},
		{"negative stagger", func(c *Config) {
			c.Failures = []FailureStep{{Kind: FailDrain, Count: 2, AtHours: 1, StaggerHours: -0.5}}
		}, `scenario "t": failure 0: staggerHours -0.5 must be >= 0`},
		{"zero resize scale", func(c *Config) {
			c.Failures = []FailureStep{{Kind: FailResize, AtHours: 1}}
		}, `scenario "t": failure 0: scale 0 must be positive`},
		{"unknown failure kind", func(c *Config) {
			c.Failures = []FailureStep{{Kind: "meteor", AtHours: 1}}
		}, `scenario "t": failure 0: unknown kind "meteor"`},
		{"overlapping link failures", func(c *Config) {
			c.Failures = []FailureStep{
				{Kind: FailLink, ID: 4, AtHours: 0.5, DurationHours: 1},
				{Kind: FailLink, ID: 4, AtHours: 1, DurationHours: 0.5},
			}
		}, `scenario "t": failures 0 and 1 overlap on link 4 ([0.5, 1.5) vs [1, 1.5))`},
		{"drain overlaps server failure", func(c *Config) {
			c.Failures = []FailureStep{
				{Kind: FailServer, ID: 7, AtHours: 0.25},
				{Kind: FailDrain, Servers: []int{7}, AtHours: 1, DurationHours: 0.5},
			}
		}, `scenario "t": failures 0 and 1 overlap on server 7 ([0.25, +Inf) vs [1, 1.5))`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("want error %q, got nil", tc.want)
			}
			if err.Error() != tc.want {
				t.Errorf("golden mismatch:\n got: %s\nwant: %s", err, tc.want)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Errorf("base config must be valid, got: %v", err)
	}
}

// TestParseRejectsUnknownFields pins the schema-typo guard.
func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"name": "x", "topo": "geant"}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("want unknown-field error, got %v", err)
	}
}

// TestLoadRefusesRetiredCommitWindow: engines no longer batch commits,
// so a scenario file that still sets the commit batch window (the
// testdata file's only key starting "batch") is refused at load with
// the strict decoder's unknown-field error rather than run with the
// setting silently ignored.
func TestLoadRefusesRetiredCommitWindow(t *testing.T) {
	_, err := Load("testdata/windowed.json")
	if err == nil || !strings.Contains(err.Error(), `json: unknown field "batch`) {
		t.Errorf("want the unknown-field error for the commit window, got %v", err)
	}
}

// TestParseValidConfig round-trips a JSON scenario through Parse.
func TestParseValidConfig(t *testing.T) {
	const doc = `{
		"name": "json-smoke",
		"topology": {"name": "geant"},
		"policy": "SP",
		"seed": 3,
		"horizonHours": 1,
		"tenants": [{
			"name": "a",
			"phases": [{"kind": "steady", "startHours": 0, "endHours": 1, "ratePerHour": 5}]
		}],
		"failures": [{"kind": "link", "id": 2, "atHours": 0.5, "durationHours": 0.1}]
	}`
	cfg, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "json-smoke" || cfg.Policy != "SP" || len(cfg.Failures) != 1 {
		t.Errorf("parse dropped fields: %+v", cfg)
	}
}

// TestLibraryIsValid: every shipped scenario must pass its own
// validator — the library is the schema's reference corpus.
func TestLibraryIsValid(t *testing.T) {
	seen := map[string]bool{}
	for _, cfg := range Library() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("library scenario %q invalid: %v", cfg.Name, err)
		}
		if seen[cfg.Name] {
			t.Errorf("duplicate library scenario name %q", cfg.Name)
		}
		seen[cfg.Name] = true
	}
	if len(seen) < 6 {
		t.Errorf("library ships %d scenarios, want >= 6", len(seen))
	}
}
