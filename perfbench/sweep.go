package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
	"wivfi/internal/governor"
	"wivfi/internal/sim"
	"wivfi/internal/sweep"
)

// sweep: one op is one large-chip scenario run as a single-scenario
// sweep.Run (mesh tier, design cache disabled) by one of nproc closed-loop
// callers. The schedule repeats a seeded cycle of every 12x12 grid point
// (6 apps x 2 island splits x 2 policies) with one 16x16 scenario per app
// spaced evenly through it (every sweepBigEvery-th op), so the median
// stays inside the 12x12 class. The seed orders the cycle.
type sweepInst struct {
	e     *env
	cycle []sweepOp
	warm  sample
}

type sweepOp struct {
	spec *sweep.Spec
	sc   sweep.Scenario
	big  bool
}

// sweepIslands are the island axis points: 4 equal islands and a skewed
// 2-island split.
var sweepIslands = []sweep.IslandAxis{{Count: 4}, {Count: 2, Split: []int{1, 3}}}

var sweepPolicies = []string{"none", "util"}

// sweepBigEvery spaces the 16x16 scenarios through the cycle.
const sweepBigEvery = 5

// sweepGrid returns every grid point the workload can draw, keyed by
// scenario key (the golden covers all of them).
func sweepGrid() ([]sweepOp, error) {
	var out []sweepOp
	for _, mesh := range []string{"12x12", "16x16"} {
		for _, isl := range sweepIslands {
			for _, pol := range sweepPolicies {
				for _, app := range expt.AppOrder {
					op, err := newSweepOp(mesh, isl, pol, app)
					if err != nil {
						return nil, err
					}
					out = append(out, op)
				}
			}
		}
	}
	return out, nil
}

func newSweepOp(mesh string, isl sweep.IslandAxis, pol, app string) (sweepOp, error) {
	raw, err := json.Marshal(sweep.Spec{
		Schema: sweep.SpecSchemaVersion, Name: "perfbench", Meshes: []string{mesh},
		Islands: []sweep.IslandAxis{isl}, Apps: []string{app}, Policies: []string{pol}, Tier: sweep.TierMesh,
	})
	if err != nil {
		return sweepOp{}, err
	}
	spec, err := sweep.ParseSpec(raw)
	if err != nil {
		return sweepOp{}, err
	}
	scs, _, err := spec.Generate()
	if err != nil || len(scs) != 1 {
		return sweepOp{}, fmt.Errorf("sweep spec %s/%d/%s/%s: %d scenarios, %v", mesh, isl.Count, pol, app, len(scs), err)
	}
	return sweepOp{spec: spec, sc: scs[0], big: mesh == "16x16"}, nil
}

func setupSweep(e *env) (instance, error) {
	grid, err := sweepGrid()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	var small, bigOps []sweepOp
	for _, op := range grid {
		if op.big {
			bigOps = append(bigOps, op)
		} else {
			small = append(small, op)
		}
	}
	rng.Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
	// Every app once at 16x16, app k on (islands, policy) point k mod 4,
	// so every seed's cycle holds the same scenarios in its own order.
	var big []sweepOp
	for k, app := range expt.AppOrder {
		isl, pol := sweepIslands[k%2], sweepPolicies[k/2%2]
		for _, op := range bigOps {
			if op.sc.App == app && op.sc.Islands == isl.Count && op.sc.Policy == pol {
				big = append(big, op)
			}
		}
	}
	rng.Shuffle(len(big), func(i, j int) { big[i], big[j] = big[j], big[i] })
	var cycle []sweepOp
	for len(small) > 0 || len(big) > 0 {
		if len(cycle)%sweepBigEvery == sweepBigEvery/2 && len(big) > 0 {
			cycle, big = append(cycle, big[0]), big[1:]
			continue
		}
		if len(small) == 0 {
			cycle, big = append(cycle, big...), nil
			continue
		}
		cycle, small = append(cycle, small[0]), small[1:]
	}
	s := &sweepInst{e: e, cycle: cycle}
	// Warm-up: one fixed 12x12 scenario, the same for every seed.
	warm, err := newSweepOp("12x12", sweepIslands[0], "none", "wc")
	if err != nil {
		return nil, err
	}
	s.warm = s.run(warm)
	s.warm.class = classSetup
	return s, nil
}

// recordDigest hashes a record's deterministic fields.
func recordDigest(rec sweep.Record) string {
	rec.CacheHit, rec.WallMS = false, 0
	blob, _ := json.Marshal(rec) // a Record always marshals
	return digest(blob)
}

func (s *sweepInst) run(op sweepOp) sample {
	smp := sample{class: classHot}
	if op.big {
		smp.class = classCold
	}
	t0 := time.Now()
	res, err := sweep.Run(op.spec, sweep.Options{Parallelism: 1})
	smp.ms = msSince(t0)
	switch {
	case err != nil:
		smp.note = err.Error()
	case len(res.Records) != 1 || res.Records[0].Error != "":
		smp.note = fmt.Sprintf("%s: scenario failed: %+v", op.sc.Label(), res.Records)
	default:
		smp.digest = recordDigest(res.Records[0])
		if want := s.e.gold.Sweep[res.Records[0].Key]; smp.digest != want {
			smp.note = fmt.Sprintf("%s: record differs from the golden", op.sc.Label())
		} else {
			smp.ok = true
		}
	}
	return smp
}

func (s *sweepInst) callers() int           { return s.e.procs }
func (s *sweepInst) op(i int) sample        { return s.run(s.cycle[i%len(s.cycle)]) }
func (s *sweepInst) serialOp(i int) sample  { return s.op(i) }
func (s *sweepInst) setupSamples() []sample { return []sample{s.warm} }
func (s *sweepInst) close()                 {}

// replay mirrors the sweep's scenario runner through the layer functions:
// design flow (cache disabled), the mapped NVFI mesh baseline, the static
// or governed VFI 2 mesh, and the DES-vs-analytic probe.
func (s *sweepInst) replay(i int, t *tracer) (string, error) {
	sc := s.cycle[i%len(s.cycle)].sc
	cfg := sc.Config()
	rec := sweep.Record{
		Schema: sweep.JournalSchemaVersion, Key: sc.Key(), ConfigHash: expt.ConfigHash(cfg),
		App: sc.App, Rows: sc.Rows, Cols: sc.Cols, Islands: sc.Islands, Sizes: sc.Sizes,
		Margin: sc.Margin, Policy: sc.Policy, CapW: sc.CapW, Tier: sc.Tier,
	}
	app, err := apps.ByName(sc.App)
	if err != nil {
		return "", err
	}
	w, err := app.Workload(cfg.Build.Chip.NumCores())
	if err != nil {
		return "", err
	}
	prof, plan, err := design(t, cfg, w)
	if err != nil {
		return "", err
	}
	baseSys, err := nvfiMeshMapped(t, cfg.Build, prof.Traffic)
	if err != nil {
		return "", err
	}
	baseRun, err := runSim(t, w, baseSys)
	if err != nil {
		return "", err
	}
	meshSys, err := vfiMesh(t, cfg.Build, plan.VFI2, prof.Traffic)
	if err != nil {
		return "", err
	}
	var run *sim.RunResult
	if sc.Policy == "none" {
		run, err = runSim(t, w, meshSys)
	} else {
		pol, perr := governor.ParsePolicy(sc.Policy)
		if perr != nil {
			return "", perr
		}
		var sum governor.Summary
		run, sum, err = governed(t, cfg, w, plan, meshSys, pol, sc.CapW)
		rec.Transitions = sum.Transitions
	}
	if err != nil {
		return "", err
	}
	rec.ExecSeconds = run.Report.ExecSeconds
	rec.TotalJ = run.Report.TotalJ()
	rec.EDP = run.Report.EDP()
	rec.ExecRatio, rec.EnergyRatio, rec.EDPRatio = run.Report.Relative(baseRun.Report)
	an, des, err := fidelityProbe(t, cfg, prof.Traffic, meshSys)
	if err != nil {
		return "", err
	}
	rec.AnalyticLatencyCycles, rec.DESLatencyCycles = an, des
	if an > 0 {
		dev := des/an - 1
		if dev < 0 {
			dev = -dev
		}
		rec.DESDeviation = dev
	}
	return recordDigest(rec), nil
}
