package scenario

// The shipped scenario library: six workloads that together exercise
// every axis the harness knows — correlated flash-crowd demand,
// diurnal load with capacity right-sizing, a correlated regional
// outage, a rolling maintenance drain over the recovery ladder,
// multi-class tenants, and rule-capacity-limited switches. They run as
// table-driven tests (scenario_test.go) and are addressable from the
// CLI (nfvsim -scenario name:<name>).

// Library returns fresh copies of the shipped scenarios, in a fixed
// order. Callers may mutate the returned configs freely.
func Library() []*Config {
	return []*Config{
		flashCrowd(),
		diurnalRightsize(),
		regionalFailure(),
		rollingDrain(),
		multiTenant(),
		ruleLimited(),
		shardedTenants(),
	}
}

// LibraryConfig returns the shipped scenario with the given name.
func LibraryConfig(name string) (*Config, bool) {
	for _, cfg := range Library() {
		if cfg.Name == name {
			return cfg, true
		}
	}
	return nil, false
}

// flashCrowd overlays a live-event audience — a burst of requests
// whose destination sets share a small hot pool — on steady background
// load, and expects the engine to start rejecting at the peak without
// ever bending a residual bound.
func flashCrowd() *Config {
	return &Config{
		Name:         "flash-crowd",
		Topology:     TopologySpec{Name: "geant"},
		Policy:       "Online_CP",
		Seed:         11,
		HorizonHours: 4,
		Tenants: []Tenant{
			{
				Name:   "background",
				Phases: []Phase{{Kind: PhaseSteady, StartHours: 0, EndHours: 4, RatePerHour: 25}},
			},
			{
				Name: "event",
				Phases: []Phase{{
					Kind: PhaseFlash, StartHours: 1.5, EndHours: 2.5, RatePerHour: 300,
					HotDestinations: 4, HotAffinity: 0.9,
				}},
				BandwidthMbps:    [2]float64{150, 400},
				MeanHoldingHours: 1,
			},
		},
	}
}

// diurnalRightsize runs a day-curve workload and right-sizes link
// capacities down during the trough, checking that resizes are
// residual-only events (no recovery pass) and never cut a live
// allocation.
func diurnalRightsize() *Config {
	return &Config{
		Name:         "diurnal-rightsize",
		Topology:     TopologySpec{Name: "geant"},
		Policy:       "Online_CP",
		Seed:         12,
		HorizonHours: 6,
		Recovery:     "off",
		Tenants: []Tenant{{
			Name: "daily",
			Phases: []Phase{{
				Kind: PhaseDiurnal, StartHours: 0, EndHours: 6,
				RatePerHour: 60, Amplitude: 0.8, PeriodHours: 6,
			}},
			MeanHoldingHours: 0.75,
		}},
		Failures: []FailureStep{{
			Kind: FailResize, AtHours: 2.25, DurationHours: 2, Scale: 0.4,
		}},
	}
}

// regionalFailure takes down every link around one epicenter in a
// single atomic batch — a correlated regional outage — and expects one
// recovery pass to repair or shed every affected session.
func regionalFailure() *Config {
	return &Config{
		Name:         "regional-failure",
		Topology:     TopologySpec{Name: "geant"},
		Policy:       "Online_CP",
		Seed:         13,
		HorizonHours: 3,
		Recovery:     "default",
		Tenants: []Tenant{{
			Name:             "steady",
			Phases:           []Phase{{Kind: PhaseSteady, StartHours: 0, EndHours: 3, RatePerHour: 60}},
			MeanHoldingHours: 2,
		}},
		Failures: []FailureStep{{
			// Frankfurt (node 10), the highest-degree GÉANT PoP.
			Kind: FailRegion, Epicenter: 10, RadiusHops: 1, AtHours: 1.5, DurationHours: 1,
		}},
	}
}

// rollingDrain staggers maintenance drains across servers so the
// recovery ladder runs repeatedly while earlier servers are already
// back — the steady-state churn of a real maintenance window.
func rollingDrain() *Config {
	return &Config{
		Name:         "rolling-drain",
		Topology:     TopologySpec{Name: "geant"},
		Policy:       "Online_CP",
		Seed:         14,
		HorizonHours: 4,
		Recovery:     "default",
		Tenants: []Tenant{{
			Name:             "steady",
			Phases:           []Phase{{Kind: PhaseSteady, StartHours: 0, EndHours: 4, RatePerHour: 50}},
			MeanHoldingHours: 2,
		}},
		Failures: []FailureStep{{
			Kind: FailDrain, Count: 3, AtHours: 1, StaggerHours: 0.75, DurationHours: 0.5,
		}},
	}
}

// multiTenant mixes a heavy gold class against a chatty bronze class
// and checks both make progress while every conservation invariant
// holds across the interleaving.
func multiTenant() *Config {
	return &Config{
		Name:         "multi-tenant",
		Topology:     TopologySpec{Name: "geant"},
		Policy:       "Online_CP",
		Seed:         15,
		HorizonHours: 3,
		Tenants: []Tenant{
			{
				Name:             "gold",
				Phases:           []Phase{{Kind: PhaseSteady, StartHours: 0, EndHours: 3, RatePerHour: 30}},
				BandwidthMbps:    [2]float64{150, 300},
				ChainLength:      [2]int{2, 3},
				MeanHoldingHours: 1.2,
			},
			{
				Name:             "bronze",
				Phases:           []Phase{{Kind: PhaseSteady, StartHours: 0, EndHours: 3, RatePerHour: 90}},
				BandwidthMbps:    [2]float64{30, 80},
				ChainLength:      [2]int{1, 1},
				DestRatio:        [2]float64{0.02, 0.1},
				MeanHoldingHours: 0.4,
			},
		},
	}
}

// shardedTenants spreads six tenant classes across a four-shard router
// (each shard an identical GÉANT replica with its own engine), then
// takes down the links around Frankfurt fleet-wide — every shard
// applies the outage batch and runs its own recovery pass. The harness's per-shard and cross-shard conservation checks do
// the heavy lifting; the scenario exists so they run on every suite.
func shardedTenants() *Config {
	tenants := make([]Tenant, 6)
	for i := range tenants {
		tenants[i] = Tenant{
			Name:             string(rune('a' + i)),
			Phases:           []Phase{{Kind: PhaseSteady, StartHours: 0, EndHours: 3, RatePerHour: 25}},
			MeanHoldingHours: 1.5,
		}
	}
	return &Config{
		Name:         "sharded-tenants",
		Topology:     TopologySpec{Name: "geant"},
		Policy:       "Online_CP",
		Seed:         17,
		HorizonHours: 3,
		Shards:       4,
		Recovery:     "default",
		Tenants:      tenants,
		Failures: []FailureStep{{
			// Frankfurt (node 10) again, but fleet-wide: the same batch
			// strikes every shard's replica.
			Kind: FailRegion, Epicenter: 10, RadiusHops: 1, AtHours: 1.5, DurationHours: 1,
		}},
	}
}

// ruleLimited attaches a rule-capacity-limited controller: admissions
// that fit the residual network but overflow a switch's flow table
// must bounce cleanly (admit, fail install, depart) and leave the
// tables consistent.
func ruleLimited() *Config {
	return &Config{
		Name:              "rule-limited",
		Topology:          TopologySpec{Name: "geant"},
		Policy:            "Online_CP",
		Seed:              16,
		HorizonHours:      3,
		MaxRulesPerSwitch: 24,
		Tenants: []Tenant{{
			Name:             "steady",
			Phases:           []Phase{{Kind: PhaseSteady, StartHours: 0, EndHours: 3, RatePerHour: 60}},
			MeanHoldingHours: 1.5,
		}},
	}
}
