package expt

import (
	"fmt"
	"strings"

	"wivfi/internal/sim"
	"wivfi/internal/topo"
)

// networkEDP aggregates a run's network energy-delay product: each phase
// contributes its network energy times its average packet latency, the
// figure of merit Section 7.2 optimizes.
func networkEDP(res *sim.RunResult) float64 {
	var edp float64
	for _, ph := range res.Phases {
		edp += ph.NetJ * ph.NetLatencyCycles
	}
	return edp
}

// Fig6Row is one benchmark of Fig. 6: the network EDP of the
// maximized-wireless-utilization placement relative to the minimized
// hop-count placement.
type Fig6Row struct {
	App string
	// Ratio < 1 means max-wireless wins, as the paper reports for all
	// benchmarks (0.90-1.00).
	Ratio float64
	// WirelessEDP and MinHopEDP are the absolute network EDPs (J x cycles).
	WirelessEDP, MinHopEDP float64
}

// Fig6 reproduces the placement-strategy comparison.
func (s *Suite) Fig6() ([]Fig6Row, error) {
	var rows []Fig6Row
	err := s.ForEach(func(pl *Pipeline) error {
		maxW := networkEDP(pl.WiNoC[sim.MaxWireless])
		minH := networkEDP(pl.WiNoC[sim.MinHop])
		rows = append(rows, Fig6Row{
			App:         pl.App.Name,
			Ratio:       maxW / minH,
			WirelessEDP: maxW,
			MinHopEDP:   minH,
		})
		return nil
	})
	return rows, err
}

// FormatFig6 renders the strategy comparison.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("Fig. 6. Network EDP: max-wireless-utilization relative to min-hop-count placement\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s ratio=%.3f\n", r.App, r.Ratio)
	}
	return b.String()
}

// KIntraRow is one benchmark of the Section 7.2 parameter study: the WiNoC
// with (k_intra, k_inter) = (3,1) versus (2,2).
type KIntraRow struct {
	App string
	// EDP31 and EDP22 are network EDPs under the two configurations.
	EDP31, EDP22 float64
	// Exec31 and Exec22 are full execution times (seconds).
	Exec31, Exec22 float64
}

// KIntraSweep reproduces the (3,1)-vs-(2,2) finding: the paper reports
// (3,1) always performs better. A variant equal to the suite's own
// small-world config is exactly the pipeline's best-strategy WiNoC run, so
// that run is reused; the other (app × configuration) WiNoC simulations are
// independent and fan out over the suite's pool. Their placements come
// from the pipeline's plan store, so a warm run plans none. The row order stays
// AppOrder regardless of completion order.
func (s *Suite) KIntraSweep() ([]KIntraRow, error) {
	if err := s.Prewarm(AppOrder...); err != nil {
		return nil, err
	}
	rows := make([]KIntraRow, len(AppOrder))
	variants := []struct{ kIntra, kInter float64 }{{3, 1}, {2, 2}}
	record := func(row *KIntraRow, v int, res *sim.RunResult) {
		if v == 0 {
			row.EDP31 = networkEDP(res)
			row.Exec31 = res.Report.ExecSeconds
		} else {
			row.EDP22 = networkEDP(res)
			row.Exec22 = res.Report.ExecSeconds
		}
	}
	own := s.Config.Build.SmallWorld
	var jobs []sim.Job
	for i, name := range AppOrder {
		pl, err := s.Pipeline(name)
		if err != nil {
			return nil, err
		}
		rows[i].App = pl.App.Name
		for v, variant := range variants {
			if variant.kIntra == own.KIntra && variant.kInter == own.KInter {
				record(&rows[i], v, pl.BestWiNoC())
				continue
			}
			jobs = append(jobs, sim.Job{Name: "sim:kintra-sweep", Detail: pl.App.Name, Run: func() error {
				sys, err := pl.plans.winocSystem(pl.BestStrategy, variant.kIntra, variant.kInter)
				if err != nil {
					return err
				}
				res, err := sim.Run(pl.Workload, sys)
				if err != nil {
					return err
				}
				record(&rows[i], v, res)
				return nil
			}})
		}
	}
	if err := s.pool.Run(jobs...); err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatKIntra renders the parameter study.
func FormatKIntra(rows []KIntraRow) string {
	var b strings.Builder
	b.WriteString("Section 7.2: (k_intra,k_inter) = (3,1) vs (2,2), network EDP and execution time\n")
	for _, r := range rows {
		verdict := "(3,1) wins"
		if r.EDP31 > r.EDP22 {
			verdict = "(2,2) wins"
		}
		fmt.Fprintf(&b, "  %-8s EDP31=%.4g EDP22=%.4g exec31=%.3fs exec22=%.3fs  %s\n",
			r.App, r.EDP31, r.EDP22, r.Exec31, r.Exec22, verdict)
	}
	return b.String()
}

// MinKIntraNote returns the feasibility bound of Section 7.2: 16-switch
// clusters need k_intra >= 1.875.
func MinKIntraNote() string {
	return fmt.Sprintf("fully connected 16-switch clusters require k_intra >= %.3f\n", topo.MinKIntra(16))
}
