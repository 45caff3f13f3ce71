package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"wivfi/internal/obs"
	"wivfi/internal/platform"
)

// everyPhaseRun is run without phase reuse: it calls runPhase on every
// phase. The reuse differential tests compare run against it.
func everyPhaseRun(w *Workload, s *System, name string, ctrl Controller, tr DVFSTransition) (*RunResult, error) {
	n := s.Chip.NumCores()
	res := &RunResult{System: name, Workload: w.Name, BusySec: make([]float64, n), ThreadTraffic: zeroMatrix(n)}
	var islands [][]int
	if ctrl != nil {
		islands = s.VFI.Islands()
	}
	phaseSys := *s
	freqs := make([]float64, n)
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
		for th := range freqs {
			freqs[th] = phaseSys.VFI.FreqOf(th)
		}
		pr, err := runPhase(&ph, &phaseSys, freqs)
		if err != nil {
			return nil, err
		}
		if ctrl != nil {
			obs = observePhase(i, &ph, &pr, phaseSys.VFI, islands, &phaseSys)
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

// bitDiffs lists where got and want differ, comparing floats bit for bit
// and slices with their nil-ness, down to the first few differences.
func bitDiffs(path string, got, want reflect.Value, out []string) []string {
	if len(out) >= 8 {
		return out
	}
	switch got.Kind() {
	case reflect.Float64:
		if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			out = append(out, fmt.Sprintf("%s: %v, want %v", path, got.Float(), want.Float()))
		}
	case reflect.Slice:
		if got.IsNil() != want.IsNil() || got.Len() != want.Len() {
			return append(out, fmt.Sprintf("%s: nil %v len %d, want nil %v len %d",
				path, got.IsNil(), got.Len(), want.IsNil(), want.Len()))
		}
		for i := 0; i < got.Len(); i++ {
			out = bitDiffs(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i), out)
		}
	case reflect.Pointer:
		return bitDiffs(path, got.Elem(), want.Elem(), out)
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			out = bitDiffs(path+"."+got.Type().Field(i).Name, got.Field(i), want.Field(i), out)
		}
	case reflect.Int, reflect.String:
		if !got.Equal(want) {
			out = append(out, fmt.Sprintf("%s: %v, want %v", path, got, want))
		}
	default:
		panic(fmt.Sprintf("bitDiffs: %s has kind %v", path, got.Kind()))
	}
	return out
}

// sameRun fails t if got differs from want in any bit.
func sameRun(t *testing.T, label string, got, want *RunResult) {
	t.Helper()
	if d := bitDiffs("RunResult", reflect.ValueOf(got), reflect.ValueOf(want), nil); len(d) > 0 {
		t.Errorf("%s: run differs from running every phase:\n%v", label, d)
	}
}

func reusedSoFar() int64 { return obs.CounterTotals()[MetricPhasesReused] }

// TestSamePhaseCoversEveryField perturbs each field of a phase in turn:
// samePhase must tell every perturbed field apart, Iteration alone
// excepted (runPhase copies it, it does not read it). A field added to
// Phase fails here until samePhase compares it, or until it is listed as
// no input of runPhase.
func TestSamePhaseCoversEveryField(t *testing.T) {
	notInputs := map[string]bool{"Iteration": true}
	base := Phase{
		Kind: Map, Iteration: 1, Tasks: 8, TaskCycles: 1e6, TaskSpread: 0.1, TaskMemOps: 10,
		ActiveThreads: []int{0, 1},
		WorkCycles:    []float64{1, 2},
		MemOps:        []float64{3, 4},
		Traffic:       [][]float64{{0, 1}, {1, 0}},
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		changed := base
		v := reflect.ValueOf(&changed).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1))
		case reflect.Slice:
			v.Set(reflect.Zero(v.Type())) // base's slices are all non-nil
		default:
			t.Fatalf("Phase.%s has kind %v: teach this test to perturb it", f.Name, v.Kind())
		}
		if got, want := samePhase(&base, &changed), notInputs[f.Name]; got != want {
			t.Errorf("samePhase with Phase.%s perturbed = %v, want %v", f.Name, got, want)
		}
	}
}

// TestReuseNeedsEveryInputEqual: phases that differ only in nil-ness, in
// one bit of their traffic or in the operating points they run at are
// different work, and a run simulates each of them; equal ones it reuses.
func TestReuseNeedsEveryInputEqual(t *testing.T) {
	pts := []platform.OperatingPoint{{VoltageV: 1, FreqGHz: 2.5}}
	slower := []platform.OperatingPoint{{VoltageV: 0.9, FreqGHz: 2.25}}
	mapPh := Phase{Kind: Map, Tasks: 4, TaskCycles: 1e6, TaskMemOps: 1}
	emptyActive := mapPh
	emptyActive.ActiveThreads = []int{}
	if samePhase(&mapPh, &emptyActive) {
		t.Error("nil ActiveThreads (every thread) equals an empty list (none)")
	}
	if samePhaseRan([]Phase{mapPh}, [][]platform.OperatingPoint{pts}, &mapPh, slower) != -1 {
		t.Error("a phase at other operating points reuses an earlier run")
	}

	// Run level: the second phase of each workload below differs from the
	// first in one input only, except the last, which repeats it.
	w := testWorkload()
	reduce := w.Phases[2]
	zeroMem := reduce
	zeroMem.MemOps = make([]float64, w.Threads)
	noMem := reduce
	noMem.MemOps = nil
	flipped := reduce
	flipped.Traffic = make([][]float64, len(reduce.Traffic))
	for i, row := range reduce.Traffic {
		flipped.Traffic[i] = append([]float64(nil), row...)
	}
	flipped.Traffic[0][1] = math.Float64frombits(math.Float64bits(flipped.Traffic[0][1]) ^ 1)
	s := nvfi(t)
	cases := []struct {
		name   string
		phases []Phase
		want   int64
	}{
		{"nil vs zero MemOps", []Phase{noMem, zeroMem}, 0},
		{"one traffic bit", []Phase{reduce, flipped}, 0},
		{"equal", []Phase{reduce, reduce}, 1},
	}
	for _, c := range cases {
		cw := &Workload{Name: c.name, Threads: w.Threads, Phases: c.phases}
		r0 := reusedSoFar()
		got, err := Run(cw, s)
		if err != nil {
			t.Fatal(err)
		}
		if n := reusedSoFar() - r0; n != c.want {
			t.Errorf("%s: %d phase(s) reused, want %d", c.name, n, c.want)
		}
		want, err := everyPhaseRun(cw, s, s.Name, nil, DVFSTransition{})
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, c.name, got, want)
	}

	// Equal phases at different points: a per-phase plan that changes the
	// points between two equal phases, then holds them for a third.
	cw := &Workload{Name: "points", Threads: w.Threads, Phases: []Phase{reduce, reduce, reduce}}
	fast := s.VFI.Clone()
	slow := s.VFI.Clone()
	slow.Points = slower
	r0 := reusedSoFar()
	got, err := RunPhased(cw, s, []platform.VFIConfig{fast, slow, slow}, DefaultDVFSTransition())
	if err != nil {
		t.Fatal(err)
	}
	if n := reusedSoFar() - r0; n != 1 {
		t.Errorf("phases at points fast, slow, slow: %d reused, want 1 (the third)", n)
	}
	want, err := everyPhaseRun(cw, s, s.Name+"+governed", Plan{fast, slow, slow}, DefaultDVFSTransition())
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "points", got, want)
}
