package expt

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"wivfi/internal/governor"
	"wivfi/internal/obs"
)

// governedArtifacts runs one governed wc simulation on a fresh suite and
// returns the byte-exact decision log plus the run's EDP-relevant report —
// the pair every determinism axis below must reproduce bit-for-bit.
func governedArtifacts(t *testing.T, jobs int, pol governor.Policy, capW float64, opts ...Option) ([]byte, string) {
	t.Helper()
	s := NewSuite(DefaultConfig(), append([]Option{WithParallelism(jobs)}, opts...)...)
	pl, err := s.Pipeline("wc")
	if err != nil {
		t.Fatal(err)
	}
	log := governor.NewLog()
	run, sum, err := GovernedMesh(s.Config, pl, pol, capW, log, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := log.NDJSON()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Decisions != log.Len() {
		t.Fatalf("summary counts %d decisions, log holds %d", sum.Decisions, log.Len())
	}
	exec, en, edp := run.Report.Relative(pl.Baseline.Report)
	// Bit-exact float identity: compare the IEEE-754 patterns, not rounded
	// decimals, so "equal" means equal.
	return blob, fmt.Sprintf("%016x/%016x/%016x",
		math.Float64bits(exec), math.Float64bits(en), math.Float64bits(edp))
}

// TestGovernedStaticMatchesMesh locks the baseline identity: the governed
// run under the static policy holds the paper plan fixed at every phase
// boundary, so it must reproduce the pipeline's VFI 2 mesh run exactly —
// same report, zero transitions, zero sheds.
func TestGovernedStaticMatchesMesh(t *testing.T) {
	s := sharedSuite(t)
	pl, err := s.Pipeline("wc")
	if err != nil {
		t.Fatal(err)
	}
	run, sum, err := GovernedMesh(s.Config, pl, governor.Static, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Report != pl.VFI2Mesh.Report {
		t.Errorf("static governed report %+v != mesh report %+v", run.Report, pl.VFI2Mesh.Report)
	}
	if sum.Transitions != 0 || sum.Sheds != 0 || sum.CapViolations != 0 {
		t.Errorf("static policy actuated: %+v", sum)
	}
	if sum.Decisions != len(run.Phases) {
		t.Errorf("%d decisions for %d phases", sum.Decisions, len(run.Phases))
	}
}

// TestGovernorDecisionLogDeterministic is the tentpole's determinism
// contract: same config, same decisions — bit-equal NDJSON log and
// bit-equal EDP at any parallelism, with the design cache cold or hot, and
// with telemetry recording on or off.
func TestGovernorDecisionLogDeterministic(t *testing.T) {
	refLog, refEDP := governedArtifacts(t, 1, governor.Cap, DefaultGovernorCapW)

	jLog, jEDP := governedArtifacts(t, 8, governor.Cap, DefaultGovernorCapW)
	if !bytes.Equal(refLog, jLog) || refEDP != jEDP {
		t.Error("decision log or EDP differs between -j 1 and -j 8")
	}

	dir := t.TempDir()
	coldLog, coldEDP := governedArtifacts(t, 4, governor.Cap, DefaultGovernorCapW, WithCacheDir(dir))
	hotLog, hotEDP := governedArtifacts(t, 4, governor.Cap, DefaultGovernorCapW, WithCacheDir(dir))
	if !bytes.Equal(refLog, coldLog) || refEDP != coldEDP {
		t.Error("decision log or EDP differs on a cold design cache")
	}
	if !bytes.Equal(refLog, hotLog) || refEDP != hotEDP {
		t.Error("decision log or EDP differs on a hot design cache")
	}

	rec := obs.NewRecorder()
	obs.Install(rec)
	defer obs.Install(nil)
	tLog, tEDP := governedArtifacts(t, 4, governor.Cap, DefaultGovernorCapW)
	if !bytes.Equal(refLog, tLog) || refEDP != tEDP {
		t.Error("decision log or EDP differs with telemetry recording")
	}

	if len(refLog) == 0 {
		t.Fatal("empty decision log")
	}
}

// TestGovernorStudyCapRespected is the cap-safety acceptance check: in
// every benchmark's capped run, measured phase power never exceeds the
// admitted worst-case bound, the bound never exceeds the cap, and no
// decision was a violation.
func TestGovernorStudyCapRespected(t *testing.T) {
	rows, err := sharedSuite(t).GovernorStudy(DefaultGovernorCapW)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AppOrder) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Violations != 0 {
			t.Errorf("%s: %d cap violations", r.App, r.Violations)
		}
		if r.MaxPowerCapW > r.WorstCaseCapW+1e-9 {
			t.Errorf("%s: measured %.3f W exceeds admitted worst case %.3f W", r.App, r.MaxPowerCapW, r.WorstCaseCapW)
		}
		if r.WorstCaseCapW > r.CapW+1e-9 {
			t.Errorf("%s: admitted worst case %.3f W exceeds cap %.0f W", r.App, r.WorstCaseCapW, r.CapW)
		}
		if r.StaticEDP <= 0 || r.UtilEDP <= 0 || r.CapEDP <= 0 {
			t.Errorf("%s: non-positive EDP ratios %+v", r.App, r)
		}
	}
}

// TestGovernorStudyDeterministicAcrossJ locks the study table itself:
// fixed-slot fan-out must make rows identical at any parallelism.
func TestGovernorStudyDeterministicAcrossJ(t *testing.T) {
	serial, err := NewSuite(DefaultConfig(), WithParallelism(1)).GovernorStudy(DefaultGovernorCapW)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewSuite(DefaultConfig(), WithParallelism(8)).GovernorStudy(DefaultGovernorCapW)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("governor study differs across -j:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestCheckGovernorCap pins the one cap range every tool validates
// against: NaN and ±Inf, which no ordered comparison rejects by default,
// zero and negative caps are errors, both edges are accepted.
func TestCheckGovernorCap(t *testing.T) {
	for _, tc := range []struct {
		capW float64
		ok   bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{0, false},
		{-5, false},
		{19.999, false},
		{20, true},
		{DefaultGovernorCapW, true},
		{500, true},
		{500.001, false},
	} {
		if err := CheckGovernorCap(tc.capW); (err == nil) != tc.ok {
			t.Errorf("CheckGovernorCap(%v) = %v, want ok=%v", tc.capW, err, tc.ok)
		}
	}
}
