package expt

import (
	"fmt"
	"sort"
	"strings"

	"wivfi/internal/noc"
	"wivfi/internal/sched"
	"wivfi/internal/sim"
	"wivfi/internal/topo"
)

// WIFailureRow is one point of the wireless-fault robustness study: the
// WiNoC with the given number of failed wireless interfaces, relative to
// the healthy WiNoC.
type WIFailureRow struct {
	App       string
	FailedWIs int
	// ExecRatio and EDPRatio are relative to the healthy (0-failure)
	// WiNoC run.
	ExecRatio float64
	EDPRatio  float64
}

// WIFailureStudy is an extension beyond the paper: it quantifies how
// gracefully the VFI WiNoC degrades as mm-wave interfaces fail. The
// wireline small-world fabric keeps the network connected by construction,
// so failures cost latency and energy, never correctness.
func (s *Suite) WIFailureStudy(appName string, failures []int) ([]WIFailureRow, error) {
	pl, err := s.Pipeline(appName)
	if err != nil {
		return nil, err
	}
	cfg := s.Config.Build

	// the pipeline's max-wireless placement; failures then disable WIs in
	// deterministic id order
	p, mapping, err := pl.plans.winocPlacement(sim.MaxWireless, cfg.SmallWorld.KIntra, cfg.SmallWorld.KInter)
	if err != nil {
		return nil, err
	}
	numWIs := 0
	for _, wis := range p.WIs {
		numWIs += len(wis)
	}

	// The wireline fabric is built once; each failure point overlays the
	// placement on a fresh copy, since DisableWI mutates its topology. The
	// fabric splits inter-cluster links evenly (nil InterTraffic), unlike
	// the pipeline's traffic-apportioned one — a known gap, see
	// EXPERIMENTS.md.
	swCfg := cfg.SmallWorld
	swCfg.InterTraffic = nil
	wire, err := topo.SmallWorld(cfg.Chip, swCfg)
	if err != nil {
		return nil, err
	}
	sorted := append([]int(nil), failures...)
	sort.Ints(sorted)
	for _, k := range sorted {
		if k < 0 || k > numWIs {
			return nil, fmt.Errorf("expt: cannot fail %d of %d WIs", k, numWIs)
		}
	}
	// The failure points are independent runs, fanned out over the pool
	// into fixed slots.
	runs := make([]*sim.RunResult, len(sorted))
	jobs := make([]sim.Job, len(sorted))
	for i, k := range sorted {
		jobs[i] = sim.Job{Name: "sim:wi-failure", Detail: appName, Run: func() error {
			tp, err := topo.WithWireless(wire, p.WIs)
			if err != nil {
				return err
			}
			wis := append([]int(nil), tp.WIs...)
			for _, wi := range wis[:k] {
				if err := topo.DisableWI(tp, wi); err != nil {
					return err
				}
			}
			rt, err := noc.BuildRoutes(tp, cfg.LinkCosts, noc.UpDown)
			if err != nil {
				return err
			}
			sys := &sim.System{
				Name:               fmt.Sprintf("vfi-winoc-%dfailed", k),
				Chip:               cfg.Chip,
				VFI:                pl.Plan.VFI2,
				Mapping:            mapping,
				Routes:             rt,
				NetModel:           cfg.NetModel,
				CoreModel:          cfg.CoreModel,
				Analytic:           cfg.Analytic,
				NetClockGHz:        cfg.NetClockGHz,
				Policy:             sched.CapVFI,
				MemRoundTripFactor: cfg.MemRoundTripFactor,
				AdaptiveRouting:    true,
			}
			runs[i], err = sim.Run(pl.Workload, sys)
			return err
		}}
	}
	if err := s.pool.Run(jobs...); err != nil {
		return nil, err
	}
	// Rows are relative to the healthy run, which sorts first; without a
	// 0 in failures, to the first row.
	rows := make([]WIFailureRow, len(sorted))
	for i, k := range sorted {
		base := runs[0].Report
		rows[i] = WIFailureRow{
			App:       appName,
			FailedWIs: k,
			ExecRatio: runs[i].Report.ExecSeconds / base.ExecSeconds,
			EDPRatio:  runs[i].Report.EDP() / base.EDP(),
		}
	}
	return rows, nil
}

// FormatWIFailure renders the robustness study.
func FormatWIFailure(rows []WIFailureRow) string {
	var b strings.Builder
	b.WriteString("WI-failure robustness (relative to healthy WiNoC)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s failed=%2d exec=%.3f EDP=%.3f\n", r.App, r.FailedWIs, r.ExecRatio, r.EDPRatio)
	}
	return b.String()
}
