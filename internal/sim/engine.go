package sim

import (
	"fmt"
	"math"
	"slices"

	"wivfi/internal/energy"
	"wivfi/internal/noc"
	"wivfi/internal/place"
	"wivfi/internal/platform"
	"wivfi/internal/sched"
)

// System is one fully configured platform: cores with per-island DVFS
// state, a thread-to-tile mapping and a routed interconnect.
type System struct {
	Name string
	Chip platform.Chip
	// VFI assigns threads (not tiles) to islands and islands to operating
	// points; thread i's core runs at VFI.PointOf(i).
	VFI platform.VFIConfig
	// Mapping places thread i on tile Mapping.ThreadToTile[i].
	Mapping place.Mapping
	// Routes is the routed interconnect topology.
	Routes *noc.RouteTable
	// Models and configuration.
	NetModel    energy.NetworkModel
	CoreModel   energy.CoreModel
	Analytic    noc.AnalyticConfig
	NetClockGHz float64
	// Policy selects the Map-phase stealing behaviour.
	Policy sched.Policy
	// MemRoundTripFactor converts one memory operation into this many
	// network packet traversals; 3 models the MOESI directory indirection
	// (requester -> home -> owner/data -> requester).
	MemRoundTripFactor float64
	// AdaptiveRouting enables per-phase congestion-aware route refinement
	// (irregular fabrics configure their routing tables per application;
	// XY mesh routing is oblivious and unaffected).
	AdaptiveRouting bool
}

// Validate checks the system is complete and dimensionally consistent.
func (s *System) Validate() error {
	n := s.Chip.NumCores()
	if len(s.VFI.Assign) != n {
		return fmt.Errorf("sim: VFI covers %d threads for %d cores", len(s.VFI.Assign), n)
	}
	if err := s.VFI.Validate(); err != nil {
		return err
	}
	if err := s.Mapping.Validate(); err != nil {
		return err
	}
	if len(s.Mapping.ThreadToTile) != n {
		return fmt.Errorf("sim: mapping covers %d threads", len(s.Mapping.ThreadToTile))
	}
	if s.Routes == nil {
		return fmt.Errorf("sim: system %q has no routes", s.Name)
	}
	if s.NetClockGHz <= 0 {
		return fmt.Errorf("sim: net clock %v", s.NetClockGHz)
	}
	if s.MemRoundTripFactor <= 0 {
		return fmt.Errorf("sim: memory round-trip factor %v", s.MemRoundTripFactor)
	}
	return nil
}

// PhaseResult reports one executed phase.
type PhaseResult struct {
	Kind             PhaseKind
	Iteration        int
	Seconds          float64
	BusySec          []float64 // per thread
	CoreDynJ         float64
	CoreLeakJ        float64
	NetJ             float64
	NetLatencyCycles float64
	MemStallSec      float64 // per-memory-op stall used this phase
	Steals           int
}

// RunResult aggregates a full workload execution on one system.
type RunResult struct {
	System   string
	Workload string
	Phases   []PhaseResult
	Report   energy.Report
	// BusySec is the per-thread total busy time.
	BusySec []float64
	// ThreadTraffic is the total thread-to-thread flits exchanged.
	ThreadTraffic [][]float64
}

// SecondsByKind sums phase durations per kind (the Fig. 7 breakdown).
func (r *RunResult) SecondsByKind() map[PhaseKind]float64 {
	out := map[PhaseKind]float64{}
	for _, ph := range r.Phases {
		out[ph.Kind] += ph.Seconds
	}
	return out
}

// Profile derives the platform profile the VFI design flow consumes:
// per-thread utilization over the whole run and thread-to-thread traffic
// rates in flits per microsecond. Run this on the non-VFI baseline system,
// per step 1 of the paper's design flow.
func (r *RunResult) Profile() platform.Profile {
	n := len(r.BusySec)
	util := make([]float64, n)
	total := r.Report.ExecSeconds
	for i, b := range r.BusySec {
		if total > 0 {
			util[i] = b / total
		}
		if util[i] > 1 {
			util[i] = 1
		}
	}
	traffic := make([][]float64, n)
	for i := range traffic {
		traffic[i] = make([]float64, n)
		for j := range traffic[i] {
			if total > 0 && i != j {
				traffic[i][j] = r.ThreadTraffic[i][j] / (total * 1e6)
			}
		}
	}
	return platform.Profile{Util: util, Traffic: traffic}
}

// Run executes the workload on the system at its static VFI configuration.
func Run(w *Workload, s *System) (*RunResult, error) {
	return run(w, s, s.Name, nil, DVFSTransition{})
}

// run is the one phase loop behind Run, RunPhased and RunGoverned. With a
// nil controller every phase runs at s.VFI. Otherwise ctrl picks each
// phase's configuration, which must keep s.VFI's island partition, sees
// an observation of every phase the run has executed, and every island
// whose operating point changes at a phase boundary pays tr.
func run(w *Workload, s *System, name string, ctrl Controller, tr DVFSTransition) (*RunResult, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.Chip.NumCores()
	if w.Threads != n {
		return nil, fmt.Errorf("sim: workload has %d threads for %d cores", w.Threads, n)
	}
	res := &RunResult{
		System:        name,
		Workload:      w.Name,
		BusySec:       make([]float64, n),
		ThreadTraffic: zeroMatrix(n),
	}
	var islands [][]int
	if ctrl != nil {
		islands = s.VFI.Islands()
	}
	// phaseSys carries the configuration of the phase being run; s itself
	// is never written, so callers may share one system across runs.
	phaseSys := *s
	freqs := make([]float64, n)
	// ran[i] is phase i's runPhase result before any transition charge and
	// points[i] the operating points it ran at: a later phase that matches
	// both reuses the result instead of simulating the same work again.
	ran := make([]PhaseResult, 0, len(w.Phases))
	points := make([][]platform.OperatingPoint, 0, len(w.Phases))
	var obs *PhaseObservation
	for i := range w.Phases {
		ph := w.Phases[i]
		prev := phaseSys.VFI
		if ctrl != nil {
			cfg := ctrl.Decide(obs, i, ph.Kind)
			if err := checkPartition(i, cfg, s.VFI); err != nil {
				return nil, err
			}
			phaseSys.VFI = cfg
		}
		var pr PhaseResult
		if j := samePhaseRan(w.Phases[:i], points, &ph, phaseSys.VFI.Points); j >= 0 {
			pr = ran[j]
			pr.Iteration = ph.Iteration
			pr.BusySec = slices.Clone(pr.BusySec)
			phasesReused.Add(1)
		} else {
			for th := range freqs {
				freqs[th] = phaseSys.VFI.FreqOf(th)
			}
			var err error
			if pr, err = runPhase(&ph, &phaseSys, freqs); err != nil {
				return nil, fmt.Errorf("sim: %s/%v: %w", w.Name, ph.Kind, err)
			}
		}
		ran = append(ran, pr)
		points = append(points, slices.Clone(phaseSys.VFI.Points))
		if ctrl != nil {
			// The observation describes the phase as executed, before the
			// boundary transition stall is charged — the controller reasons
			// about steady-state phase behaviour, not about its own actuation
			// overhead (which it pays, and can count, separately).
			obs = observePhase(i, &ph, &pr, phaseSys.VFI, islands, &phaseSys)
			// Every island whose point changed since the previous phase pays
			// settle time (serializing the phase start) and transition energy.
			changed := 0
			if i > 0 {
				for j, p := range phaseSys.VFI.Points {
					if p != prev.Points[j] {
						changed++
					}
				}
			}
			if changed > 0 {
				pr.Seconds += tr.SettleSec
				pr.CoreDynJ += float64(changed) * tr.EnergyJ
			}
		}
		res.Phases = append(res.Phases, pr)
		res.Report.ExecSeconds += pr.Seconds
		res.Report.CoreDynamicJ += pr.CoreDynJ
		res.Report.CoreLeakageJ += pr.CoreLeakJ
		res.Report.NetworkJ += pr.NetJ
		for th := range pr.BusySec {
			res.BusySec[th] += pr.BusySec[th]
		}
		if ph.Traffic != nil {
			AddTraffic(res.ThreadTraffic, ph.Traffic)
		}
	}
	if ctrl != nil {
		ctrl.Finish(obs)
	}
	return res, nil
}

// samePhaseRan returns the index of the first of the earlier phases that
// ran the same work as ph at the same operating points, or -1. runPhase is
// a deterministic function of the phase, the system and the points (the
// frequencies derive from them, and a run's route table, mapping and
// models are fixed), so that phase's result is exactly what running ph
// would return, up to its Iteration tag.
func samePhaseRan(earlier []Phase, points [][]platform.OperatingPoint, ph *Phase, at []platform.OperatingPoint) int {
	for j := range earlier {
		if samePhase(&earlier[j], ph) && slices.EqualFunc(points[j], at, samePoint) {
			return j
		}
	}
	return -1
}

// samePhase reports whether a and b are equal in every field runPhase
// reads: floats bit for bit, slices element by element with nil-ness
// counted (a nil ActiveThreads means every thread, a nil MemOps or Traffic
// none). Iteration is a tag runPhase copies, not an input, so it is left
// out; TestSamePhaseCoversEveryField lists the fields this must cover.
func samePhase(a, b *Phase) bool {
	return a.Kind == b.Kind && a.Tasks == b.Tasks &&
		sameBits(a.TaskCycles, b.TaskCycles) &&
		sameBits(a.TaskSpread, b.TaskSpread) &&
		sameBits(a.TaskMemOps, b.TaskMemOps) &&
		sameNil(a.ActiveThreads, b.ActiveThreads) && slices.Equal(a.ActiveThreads, b.ActiveThreads) &&
		sameFloats(a.WorkCycles, b.WorkCycles) &&
		sameFloats(a.MemOps, b.MemOps) &&
		sameNil(a.Traffic, b.Traffic) && slices.EqualFunc(a.Traffic, b.Traffic, sameFloats)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameNil[S ~[]E, E any](a, b S) bool { return (a == nil) == (b == nil) }

func sameFloats(a, b []float64) bool {
	return sameNil(a, b) && slices.EqualFunc(a, b, sameBits)
}

func samePoint(a, b platform.OperatingPoint) bool {
	return sameBits(a.VoltageV, b.VoltageV) && sameBits(a.FreqGHz, b.FreqGHz)
}

// checkPartition rejects a phase configuration that does not cover every
// thread, is malformed, or moves a thread off its island in static:
// controllers move rails, never cores.
func checkPartition(phase int, cfg, static platform.VFIConfig) error {
	if len(cfg.Assign) != len(static.Assign) {
		return fmt.Errorf("sim: phase %d config covers %d threads", phase, len(cfg.Assign))
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("sim: phase %d config: %w", phase, err)
	}
	for th, isl := range cfg.Assign {
		if isl != static.Assign[th] {
			return fmt.Errorf("sim: phase %d reassigns thread %d between islands", phase, th)
		}
	}
	return nil
}

// runPhase executes one phase with a small fixed-point iteration between
// phase duration and network-dependent memory stall time.
func runPhase(ph *Phase, s *System, freqs []float64) (PhaseResult, error) {
	n := len(freqs)
	// Switch-level traffic for this phase.
	var switchTraffic [][]float64
	var totalFlits float64
	if ph.Traffic != nil {
		switchTraffic = place.MapTraffic(ph.Traffic, s.Mapping)
		for _, row := range ph.Traffic {
			for _, f := range row {
				totalFlits += f
			}
		}
	}
	memStall := 0.0 // seconds per memory op; refined by fixed point
	var dur float64
	var busy []float64
	var steals int
	var netLat float64
	var err error
	routes := s.Routes
	// rates is reused across fixed-point iterations; every entry is
	// rewritten before each evaluation.
	var rates [][]float64
	if switchTraffic != nil {
		rates = make([][]float64, n)
		for i := range rates {
			rates[i] = make([]float64, n)
		}
	}
	for iter := 0; iter < 3; iter++ {
		dur, busy, steals, err = phaseDuration(ph, s, freqs, memStall)
		if err != nil {
			return PhaseResult{}, err
		}
		if switchTraffic == nil || totalFlits == 0 || dur <= 0 {
			break
		}
		// Convert phase flit totals into flits/cycle rates and evaluate
		// the network.
		cycles := dur * s.NetClockGHz * 1e9
		for i := range rates {
			for j := range rates[i] {
				rates[i][j] = switchTraffic[i][j] / cycles
			}
		}
		if s.AdaptiveRouting && iter == 0 {
			refined, rerr := noc.RefineRoutes(routes, rates, 2, s.Analytic.MaxUtilization)
			if rerr != nil {
				return PhaseResult{}, rerr
			}
			routes = refined
		}
		ana, aerr := noc.Analytic(routes, rates, s.NetModel, s.Analytic)
		if aerr != nil {
			return PhaseResult{}, aerr
		}
		netLat = ana.AvgLatencyCycles
		memStall = s.MemRoundTripFactor * netLat / (s.NetClockGHz * 1e9)
	}

	pr := PhaseResult{
		Kind:             ph.Kind,
		Iteration:        ph.Iteration,
		Seconds:          dur,
		BusySec:          busy,
		NetLatencyCycles: netLat,
		MemStallSec:      memStall,
		Steals:           steals,
	}
	// Network energy: every flit travels its (possibly refined) route once.
	if switchTraffic != nil {
		pr.NetJ = routes.RoutedEnergyPJ(switchTraffic, s.NetModel) * 1e-12
	}
	// Core energy: dynamic while busy, idle-clock for the rest, leakage
	// for the whole phase, all at the thread's island operating point.
	for th := 0; th < n; th++ {
		op := s.VFI.PointOf(th)
		b := busy[th]
		if b > dur {
			b = dur
		}
		pr.CoreDynJ += s.CoreModel.DynamicPowerW(op, 1)*b +
			s.CoreModel.DynamicPowerW(op, 1)*s.CoreModel.IdleFrac*(dur-b)
		pr.CoreLeakJ += s.CoreModel.LeakagePowerW(op) * dur
	}
	return pr, nil
}

// phaseDuration computes the phase makespan and per-thread busy times for a
// given per-memory-op stall.
func phaseDuration(ph *Phase, s *System, freqs []float64, memStall float64) (float64, []float64, int, error) {
	n := len(freqs)
	busy := make([]float64, n)
	switch ph.Kind {
	case Map:
		active := ph.ActiveThreads
		if active == nil {
			active = AllThreads(n)
		}
		activeFreqs := make([]float64, len(active))
		for i, th := range active {
			activeFreqs[i] = freqs[th]
		}
		tasks := sched.UniformTasks(ph.Tasks, ph.TaskCycles, ph.TaskSpread, ph.TaskMemOps*memStall)
		assign := sched.DealRoundRobin(ph.Tasks, len(active))
		res, err := sched.RunPhase(tasks, assign, activeFreqs, s.Policy, 0)
		if err != nil {
			return 0, nil, 0, err
		}
		for i, th := range active {
			busy[th] = res.BusySec[i]
		}
		return res.MakespanSec, busy, res.Steals, nil
	default:
		var dur float64
		for th := 0; th < n; th++ {
			w := ph.WorkCycles[th]
			if w == 0 {
				continue
			}
			compute := w / (freqs[th] * 1e9)
			d := compute
			if ph.MemOps != nil {
				d += ph.MemOps[th] * memStall
			}
			// Busy counts compute only: memory stalls commit no
			// instructions, so they do not raise IPC-based utilization.
			busy[th] = compute
			if d > dur {
				dur = d
			}
		}
		return dur, busy, 0, nil
	}
}
