package sim

import (
	"fmt"

	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/multicast"
)

// ExtOnlineK is an extension experiment beyond the paper: online
// admission with the service chain replicated on up to K servers (the
// paper analyses only K = 1). For each K it feeds the identical
// arrival sequence to Online_CPK on its own network replica and plots
// admitted requests plus the average servers used per admission.
func ExtOnlineK(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.NetworkSizes[len(cfg.NetworkSizes)/2]
	arrivals := cfg.Requests
	fig := Figure{
		ID: "ExtOnlineK",
		Title: fmt.Sprintf(
			"online admission vs server budget K (n = %d, %d arrivals)", n, arrivals),
		XLabel: "K",
		YLabel: "admitted / avg servers",
	}
	admittedS := Series{Label: "admitted requests"}
	serversS := Series{Label: "avg servers used"}
	maxK := cfg.K
	if maxK < 2 {
		maxK = 2
	}
	type cell struct {
		admitted   int
		avgServers float64
	}
	cells := make([]cell, maxK)
	err := forEachIndex(maxK, func(ki int) error {
		k := ki + 1
		nw, nerr := networkFor("waxman", n, cfg.Seed+int64(n))
		if nerr != nil {
			return nerr
		}
		p, perr := core.NewCPKPlanner(core.DefaultCostModel(n), k)
		if perr != nil {
			return perr
		}
		adm := engine.New(nw, p, engineOptions(cfg, p.Name()))
		defer adm.Close()
		gen, gerr := multicast.NewGenerator(n, multicast.OnlineGeneratorConfig(), cfg.Seed+51)
		if gerr != nil {
			return gerr
		}
		var servers int
		for i := 0; i < arrivals; i++ {
			req, rerr := gen.Next()
			if rerr != nil {
				return rerr
			}
			if sol, err := adm.Admit(req); err == nil {
				servers += len(sol.Servers)
			} else if !core.IsRejection(err) {
				return err
			}
		}
		c := cell{admitted: adm.AdmittedCount()}
		if c.admitted > 0 {
			c.avgServers = float64(servers) / float64(c.admitted)
		}
		cells[ki] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki, c := range cells {
		fig.X = append(fig.X, float64(ki+1))
		admittedS.Y = append(admittedS.Y, float64(c.admitted))
		serversS.Y = append(serversS.Y, c.avgServers)
	}
	fig.Series = []Series{admittedS, serversS}
	return []Figure{fig}, nil
}
