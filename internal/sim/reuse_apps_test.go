package sim_test

import (
	"testing"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
	"wivfi/internal/governor"
	"wivfi/internal/obs"
	"wivfi/internal/platform"
	"wivfi/internal/sim"
)

// TestReuseMatchesEveryPhaseRun is the differential test of phase reuse:
// on every app's workload, Run, RunPhased and RunGoverned must return,
// bit for bit, what simulating every phase returns. The systems are the
// pipeline's five, a phase-adaptive plan on the VFI 2 mesh and the
// cap-policy governor on the max-wireless WiNoC. Only the two-iteration
// apps, pca and kmeans, have phases to reuse.
func TestReuseMatchesEveryPhaseRun(t *testing.T) {
	if testing.Short() {
		t.Skip("designs and places every app")
	}
	cfg := expt.DefaultConfig()
	b := cfg.Build
	table := platform.DefaultDVFSTable()
	tr := sim.DefaultDVFSTransition()
	for _, name := range expt.AppOrder {
		t.Run(name, func(t *testing.T) {
			app, err := apps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w, prof, plan, _, err := expt.BuildDesign(cfg, app, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			traffic := prof.Traffic
			var systems []*sim.System
			for _, build := range []func() (*sim.System, error){
				func() (*sim.System, error) { return sim.NVFIMeshMapped(b, traffic) },
				func() (*sim.System, error) { return sim.VFIMesh(b, plan.VFI1, traffic) },
				func() (*sim.System, error) { return sim.VFIMesh(b, plan.VFI2, traffic) },
				func() (*sim.System, error) { return sim.VFIWiNoC(b, plan.VFI2, traffic, sim.MinHop) },
				func() (*sim.System, error) { return sim.VFIWiNoC(b, plan.VFI2, traffic, sim.MaxWireless) },
			} {
				sys, err := build()
				if err != nil {
					t.Fatal(err)
				}
				systems = append(systems, sys)
			}
			check := func(label string, got *sim.RunResult, err error, want *sim.RunResult, werr error) {
				t.Helper()
				if err != nil || werr != nil {
					t.Fatalf("%s: %v / reference %v", label, err, werr)
				}
				if d := sim.RunDiffs(got, want); len(d) > 0 {
					t.Errorf("%s: differs from simulating every phase:\n%v", label, d)
				}
			}
			r0 := obs.CounterTotals()[sim.MetricPhasesReused]
			var baseline *sim.RunResult
			for _, sys := range systems {
				got, err := sim.Run(w, sys)
				want, werr := sim.RunEveryPhase(w, sys, sys.Name, nil, sim.DVFSTransition{})
				check(sys.Name, got, err, want, werr)
				if baseline == nil {
					baseline = want
				}
			}

			mesh, winoc := systems[2], systems[4]
			configs := sim.PhaseConfigs(baseline, plan.VFI2, table, cfg.VFI.FreqMargin, sim.PhaseUtilMaxCore)
			got, err := sim.RunPhased(w, mesh, configs, tr)
			want, werr := sim.RunEveryPhase(w, mesh, mesh.Name+"+governed", sim.Plan(configs), tr)
			check("phased "+mesh.Name, got, err, want, werr)

			gov := func() *governor.Governor {
				return governor.New(governor.Config{
					Policy: governor.Cap, Plan: plan.VFI2, Table: table, Margin: cfg.VFI.FreqMargin,
					CapW: expt.DefaultGovernorCapW, Protected: plan.RaisedIslands, Core: b.CoreModel,
				})
			}
			got, err = sim.RunGoverned(w, winoc, gov(), tr)
			want, werr = sim.RunEveryPhase(w, winoc, winoc.Name+"+governed", gov(), tr)
			check("governed "+winoc.Name, got, err, want, werr)

			reused := obs.CounterTotals()[sim.MetricPhasesReused] - r0
			if twoIterations := name == "pca" || name == "kmeans"; twoIterations != (reused > 0) {
				t.Errorf("%d phase(s) reused over the seven runs", reused)
			}
		})
	}
}
