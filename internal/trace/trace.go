// Package trace persists experiment results as JSON (cmd/nfvsim's -json
// output) so runs can be archived and diffed. Requests have one codec,
// wal.RequestRecord.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"nfvmcast/internal/sim"
)

// FormatVersion identifies the trace schema; bump on breaking change.
const FormatVersion = 1

// Results is a serialisable set of experiment figures.
type Results struct {
	Version    int          `json:"version"`
	Experiment string       `json:"experiment"`
	Requests   int          `json:"requests"`
	Seed       int64        `json:"seed"`
	K          int          `json:"k"`
	Figures    []sim.Figure `json:"figures"`
}

// NewResults wraps experiment output for serialisation.
func NewResults(experiment string, cfg sim.Config, figs []sim.Figure) *Results {
	return &Results{
		Version:    FormatVersion,
		Experiment: experiment,
		Requests:   cfg.Requests,
		Seed:       cfg.Seed,
		K:          cfg.K,
		Figures:    figs,
	}
}

// Write serialises the results as indented JSON.
func (r *Results) Write(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadResults parses results from JSON.
func ReadResults(in io.Reader) (*Results, error) {
	var r Results
	if err := json.NewDecoder(in).Decode(&r); err != nil {
		return nil, fmt.Errorf("trace: decode results: %w", err)
	}
	if r.Version != FormatVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", r.Version, FormatVersion)
	}
	return &r, nil
}
