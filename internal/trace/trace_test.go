package trace

import (
	"bytes"
	"strings"
	"testing"

	"nfvmcast/internal/sim"
)

func TestResultsRoundtrip(t *testing.T) {
	figs := []sim.Figure{{
		ID:     "Fig9(a)",
		Title:  "t",
		XLabel: "x",
		X:      []float64{1, 2},
		YLabel: "y",
		Series: []sim.Series{{Label: "Online_CP", Y: []float64{3, 4}}},
	}}
	cfg := sim.DefaultConfig()
	r := NewResults("fig9", cfg, figs)
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Experiment != "fig9" || back.Seed != cfg.Seed || back.K != cfg.K {
		t.Fatalf("provenance lost: %+v", back)
	}
	if len(back.Figures) != 1 || back.Figures[0].Series[0].Y[1] != 4 {
		t.Fatalf("figures lost: %+v", back.Figures)
	}
	if _, err := ReadResults(strings.NewReader(`{"version":99}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := ReadResults(strings.NewReader("nope")); err == nil {
		t.Fatal("broken JSON accepted")
	}
}
