package sim

import (
	"fmt"

	"wivfi/internal/platform"
)

// DVFSTransition models the cost of re-programming an island's
// voltage/frequency between phases: per-island regulators need time to
// settle and burn charge moving the rail.
type DVFSTransition struct {
	// SettleSec is the stall while an island's rail moves (typical on-chip
	// regulator + PLL relock budgets are in the microseconds).
	SettleSec float64
	// EnergyJ is the charge moved per island transition.
	EnergyJ float64
}

// DefaultDVFSTransition returns a 20 us / 2 uJ transition, consistent with
// fast on-chip regulation at 65 nm.
func DefaultDVFSTransition() DVFSTransition {
	return DVFSTransition{SettleSec: 20e-6, EnergyJ: 2e-6}
}

// Plan is a Controller that replays a precomputed (offline, oracle)
// per-phase configuration list: phase i runs at Plan[i]. A phase past the
// plan's end gets the zero configuration, which the run rejects.
type Plan []platform.VFIConfig

// Decide returns the planned configuration of phase index.
func (p Plan) Decide(_ *PhaseObservation, index int, _ PhaseKind) platform.VFIConfig {
	if index >= len(p) {
		return platform.VFIConfig{}
	}
	return p[index]
}

// Finish implements Controller; a plan ignores observations.
func (Plan) Finish(*PhaseObservation) {}

// RunPhased executes the workload with a per-phase VFI configuration — the
// extension the paper's introduction gestures at ("the execution of
// MapReduce generates varying workload patterns depending on the execution
// stages"): instead of one static V/F per island for the whole run, every
// phase gets its own assignment. configs[i] applies to workload phase i;
// all configurations must share the system's island partition (cores never
// migrate between islands at run time — only rails move).
//
// Island transitions between consecutive phases pay the DVFSTransition
// cost. The result is directly comparable to Run on the same system.
func RunPhased(w *Workload, s *System, configs []platform.VFIConfig, tr DVFSTransition) (*RunResult, error) {
	if len(configs) != len(w.Phases) {
		return nil, fmt.Errorf("sim: %d phase configs for %d phases", len(configs), len(w.Phases))
	}
	return RunGoverned(w, s, Plan(configs), tr)
}

// PhaseUtilMode selects how an island's per-phase utilization is summarized
// when deriving phase-adaptive V/F.
type PhaseUtilMode int

const (
	// PhaseUtilMean scales by the island's mean utilization within the
	// phase. Aggressive: an island with one hot master and fifteen idle
	// threads reads as idle and gets throttled — which stretches
	// master-critical phases (library init, merge).
	PhaseUtilMean PhaseUtilMode = iota
	// PhaseUtilMaxCore scales by the busiest core of the island within the
	// phase — bottleneck-aware: an island is only throttled when *no* core
	// in it is on the critical path.
	PhaseUtilMaxCore
)

func (m PhaseUtilMode) String() string {
	if m == PhaseUtilMean {
		return "mean"
	}
	return "max-core"
}

// PhaseConfigs derives a per-phase VFI assignment from a baseline run: for
// each phase, each island's V/F follows the same margin-quantize rule as
// the static flow but fed with that phase's island utilization (per the
// chosen mode). Idle islands drop to the lowest rail.
func PhaseConfigs(base *RunResult, static platform.VFIConfig,
	table []platform.OperatingPoint, margin float64, mode PhaseUtilMode) []platform.VFIConfig {
	islands := static.Islands()
	fmax := platform.MaxPoint(table).FreqGHz
	configs := make([]platform.VFIConfig, len(base.Phases))
	for i, ph := range base.Phases {
		cfg := static.Clone()
		for j, cores := range islands {
			util := 0.0
			if ph.Seconds > 0 {
				switch mode {
				case PhaseUtilMaxCore:
					for _, th := range cores {
						if u := ph.BusySec[th] / ph.Seconds; u > util {
							util = u
						}
					}
				default:
					var busy float64
					for _, th := range cores {
						busy += ph.BusySec[th]
					}
					util = busy / (ph.Seconds * float64(len(cores)))
				}
			}
			target := util + margin
			if target > 1 {
				target = 1
			}
			cfg.Points[j] = platform.QuantizeUp(table, fmax*target)
		}
		configs[i] = cfg
	}
	return configs
}
