package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nfvmcast/internal/core"
	"nfvmcast/internal/scenario"
)

// Scenario-harness subcommands: -scenario runs one scenario (a shipped
// library name, "all", or a path to a JSON config) and prints the
// result as JSON; -scenario-list shows the shipped library. A run with
// invariant violations exits non-zero — the harness is a test driver
// first.

// listScenarios prints the shipped scenario library.
func listScenarios(w io.Writer) {
	fmt.Fprintln(w, "shipped scenarios (run with -scenario <name>, or pass a JSON config path):")
	for _, cfg := range scenario.Library() {
		extras := ""
		if len(cfg.Failures) > 0 {
			extras = fmt.Sprintf(", %d failure steps", len(cfg.Failures))
		}
		if cfg.MaxRulesPerSwitch > 0 {
			extras += fmt.Sprintf(", <=%d rules/switch", cfg.MaxRulesPerSwitch)
		}
		if cfg.Shards > 1 {
			extras += fmt.Sprintf(", %d shards", cfg.Shards)
		}
		fmt.Fprintf(w, "  %-18s %s/%s, %gh horizon, %d tenants%s\n",
			cfg.Name, cfg.Topology.Name, cfg.Policy, cfg.HorizonHours, len(cfg.Tenants), extras)
	}
	fmt.Fprintln(w, "  all                run the whole library")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "policies (a scenario's \"policy\" field; from the planner registry):")
	specs := core.Planners()
	width := 0
	for _, s := range specs {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range specs {
		fmt.Fprintf(w, "  %-*s  %s\n", width, s.Name, s.Description)
	}
}

// scenarioConfigs resolves the -scenario argument: "all", a library
// name, or a config file path.
func scenarioConfigs(spec string) ([]*scenario.Config, error) {
	if spec == "all" {
		return scenario.Library(), nil
	}
	if cfg, ok := scenario.LibraryConfig(spec); ok {
		return []*scenario.Config{cfg}, nil
	}
	cfg, err := scenario.Load(spec)
	if err != nil {
		if _, serr := os.Stat(spec); os.IsNotExist(serr) && filepath.Ext(spec) == "" {
			return nil, fmt.Errorf("scenario %q: not a shipped scenario (see -scenario-list) and no such file", spec)
		}
		return nil, err
	}
	return []*scenario.Config{cfg}, nil
}

// scenarioOverrides carries the CLI knobs that rewrite a resolved
// scenario config before it runs. Negative ints and the empty tenant
// string mean "keep the config's own value".
type scenarioOverrides struct {
	shards int
	tenant string
	daemon string // non-empty: drive a live nfvmcastd at this base URL
}

// apply rewrites cfg in place; it errors when -tenant names a class the
// scenario does not define.
func (o scenarioOverrides) apply(cfg *scenario.Config) error {
	if o.shards >= 0 {
		cfg.Shards = o.shards
	}
	if o.tenant != "" {
		kept := cfg.Tenants[:0]
		for _, t := range cfg.Tenants {
			if t.Name == o.tenant {
				kept = append(kept, t)
			}
		}
		if len(kept) == 0 {
			names := make([]string, len(cfg.Tenants))
			for i, t := range cfg.Tenants {
				names[i] = t.Name
			}
			return fmt.Errorf("scenario %q has no tenant %q (tenants: %s)",
				cfg.Name, o.tenant, strings.Join(names, ", "))
		}
		cfg.Tenants = kept
	}
	return nil
}

// runScenarios drives each resolved scenario and prints one JSON
// result per run.
func runScenarios(spec string, over scenarioOverrides, jsonDir string) error {
	cfgs, err := scenarioConfigs(spec)
	if err != nil {
		return err
	}
	violations := 0
	for _, cfg := range cfgs {
		if err := over.apply(cfg); err != nil {
			return err
		}
		var res *scenario.Result
		if over.daemon != "" {
			res, err = scenario.RunDaemon(cfg, over.daemon)
		} else {
			res, err = scenario.Run(cfg)
		}
		if err != nil {
			return err
		}
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		if jsonDir != "" {
			path := filepath.Join(jsonDir, "scenario-"+cfg.Name+".json")
			if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
				return err
			}
		}
		violations += len(res.Violations)
	}
	if violations > 0 {
		return fmt.Errorf("scenario run finished with %d invariant violations", violations)
	}
	return nil
}
