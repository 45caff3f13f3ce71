package expt

import (
	"fmt"
	"strings"

	"wivfi/internal/governor"
	"wivfi/internal/platform"
	"wivfi/internal/sim"
	"wivfi/internal/vfi"
)

// DefaultGovernorCapW is the chip-level core-power cap (watts) of the
// governor-under-cap study column and the snapshot's governor section. It
// sits well below the static plan's worst-case core power (~166 W for the
// paper's typical Table 2 assignments) and well above the ladder floor
// (~41 W with every island at the minimum point), so the cap genuinely
// binds yet always admits a feasible configuration — the capped governor
// can guarantee zero violations.
const DefaultGovernorCapW = 120.0

// CheckGovernorCap rejects a core-power cap outside [20, 500] W, NaN and
// ±Inf included: every tool that takes a cap (reproduce -cap, mrsim -cap,
// wivfid's cap_watts) validates it here.
func CheckGovernorCap(capW float64) error {
	const lo, hi = 20.0, 500.0
	if !(capW >= lo && capW <= hi) { // false for NaN
		return fmt.Errorf("cap %v W out of range [%g, %g]", capW, lo, hi)
	}
	return nil
}

// GovernedMesh executes the benchmark's workload on its VFI 2 mesh
// platform under a closed-loop DVFS governor: the same platform as the
// pipeline's static VFI2Mesh run, but with island operating points
// re-decided at every phase boundary from the run's own observations. The
// optional log records every decision; onDecision additionally streams
// them live (the serving layer's decision events). The returned summary
// carries the run's decision statistics and measured-power envelope.
func GovernedMesh(cfg Config, pl *Pipeline, pol governor.Policy, capW float64,
	log *governor.Log, onDecision func(governor.Decision)) (*sim.RunResult, governor.Summary, error) {
	meshSys, err := pl.plans.vfiMesh(pl.Plan.VFI2)
	if err != nil {
		return nil, governor.Summary{}, err
	}
	return governedRun(cfg, pl.Workload, pl.Plan, meshSys, pol, capW, log, onDecision)
}

// GovernedSystem executes workload w on a prebuilt VFI 2 mesh system under
// the closed-loop governor, from a bare (profile, plan) design rather than
// a full Pipeline — the sweep orchestrator's entry point for its governed
// scenario dimension.
func GovernedSystem(cfg Config, w *sim.Workload, plan vfi.Plan, meshSys *sim.System,
	pol governor.Policy, capW float64) (*sim.RunResult, governor.Summary, error) {
	return governedRun(cfg, w, plan, meshSys, pol, capW, nil, nil)
}

// governedRun is the one governor wiring behind GovernedMesh,
// GovernedSystem and the governor study. The system is read-only under
// RunGoverned, which simulates on a copy, so the study shares one system
// across its three policy runs.
func governedRun(cfg Config, w *sim.Workload, plan vfi.Plan, meshSys *sim.System, pol governor.Policy, capW float64,
	log *governor.Log, onDecision func(governor.Decision)) (*sim.RunResult, governor.Summary, error) {
	g := governor.New(governor.Config{
		Policy:    pol,
		Plan:      plan.VFI2,
		Table:     platform.DefaultDVFSTable(),
		Margin:    cfg.VFI.FreqMargin,
		CapW:      capW,
		Protected: plan.RaisedIslands,
		Core:      cfg.Build.CoreModel,
	})
	g.SetLog(log)
	g.OnDecision(onDecision)
	run, err := sim.RunGoverned(w, meshSys, g, sim.DefaultDVFSTransition())
	if err != nil {
		return nil, governor.Summary{}, err
	}
	return run, g.Summary(), nil
}

// GovernorRow compares one benchmark's three governor policies on the
// VFI 2 mesh platform, all normalized against the NVFI mesh baseline.
type GovernorRow struct {
	App string
	// EDP and execution-time ratios vs the NVFI mesh baseline for the
	// static-plan, utilization-governor and governor-under-cap runs.
	StaticEDP  float64
	UtilEDP    float64
	CapEDP     float64
	ExecStatic float64
	ExecUtil   float64
	ExecCap    float64
	// Transition counts of the two closed-loop runs (island point changes
	// actuated across phase boundaries).
	UtilTransitions int
	CapTransitions  int
	// Sheds counts the capped run's shedding ladder steps; Violations its
	// decisions where even the ladder floor exceeded the cap (0 whenever
	// the cap admits the floor configuration).
	Sheds      int
	Violations int
	// Measured per-phase core-power maxima of the three runs, and the
	// capped run's worst-case admitted bound; CapW echoes the cap. The
	// cap guarantee is MaxPowerCapW <= WorstCaseCapW <= CapW.
	MaxPowerStaticW float64
	MaxPowerUtilW   float64
	MaxPowerCapW    float64
	WorstCaseCapW   float64
	CapW            float64
}

// GovernorStudy runs the closed-loop DVFS comparison across all six
// benchmarks: the static paper plan held fixed (baseline), the
// utilization-threshold governor, and the governor under a chip-level
// core-power cap of capW with priority shedding. The three policy runs of
// each benchmark fan out over the suite pool; results land in fixed slots
// so row order and content are deterministic at any parallelism.
func (s *Suite) GovernorStudy(capW float64) ([]GovernorRow, error) {
	if err := s.Prewarm(AppOrder...); err != nil {
		return nil, err
	}
	policies := []governor.Policy{governor.Static, governor.Util, governor.Cap}
	rows := make([]GovernorRow, len(AppOrder))
	var jobs []sim.Job
	for i, name := range AppOrder {
		pl, err := s.Pipeline(name)
		if err != nil {
			return nil, err
		}
		rows[i].App = pl.App.Name
		rows[i].CapW = capW
		meshSys, err := pl.plans.vfiMesh(pl.Plan.VFI2)
		if err != nil {
			return nil, err
		}
		for _, pol := range policies {
			jobs = append(jobs, sim.Job{Name: "sim:governor", Detail: pl.App.Name, Run: func() error {
				run, sum, err := governedRun(s.Config, pl.Workload, pl.Plan, meshSys, pol, capW, nil, nil)
				if err != nil {
					return err
				}
				exec, _, edp := run.Report.Relative(pl.Baseline.Report)
				r := &rows[i]
				switch pol {
				case governor.Static:
					r.ExecStatic, r.StaticEDP = exec, edp
					r.MaxPowerStaticW = sum.MaxPowerW
				case governor.Util:
					r.ExecUtil, r.UtilEDP = exec, edp
					r.MaxPowerUtilW = sum.MaxPowerW
					r.UtilTransitions = sum.Transitions
				case governor.Cap:
					r.ExecCap, r.CapEDP = exec, edp
					r.MaxPowerCapW = sum.MaxPowerW
					r.WorstCaseCapW = sum.WorstCasePowerW
					r.CapTransitions = sum.Transitions
					r.Sheds = sum.Sheds
					r.Violations = sum.CapViolations
				}
				return nil
			}})
		}
	}
	if err := s.pool.Run(jobs...); err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatGovernor renders the closed-loop governor comparison.
func FormatGovernor(rows []GovernorRow) string {
	var b strings.Builder
	capW := DefaultGovernorCapW
	if len(rows) > 0 {
		capW = rows[0].CapW
	}
	fmt.Fprintf(&b, "Governor: closed-loop DVFS policies (VFI 2 mesh, vs NVFI mesh; cap %.0f W core power)\n", capW)
	b.WriteString("  app      EDP static/util/cap       exec static/util/cap     trans u/c    sheds  maxW s/u/c        viol\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %7.3f %7.3f %7.3f   %7.3f %7.3f %7.3f   %4d %4d   %5d  %5.1f %5.1f %5.1f   %3d\n",
			r.App, r.StaticEDP, r.UtilEDP, r.CapEDP,
			r.ExecStatic, r.ExecUtil, r.ExecCap,
			r.UtilTransitions, r.CapTransitions, r.Sheds,
			r.MaxPowerStaticW, r.MaxPowerUtilW, r.MaxPowerCapW, r.Violations)
	}
	return b.String()
}
