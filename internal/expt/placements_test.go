package expt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"wivfi/internal/apps"
	"wivfi/internal/keyaudit"
	"wivfi/internal/noc"
	"wivfi/internal/obs"
	"wivfi/internal/place"
	"wivfi/internal/sim"
	"wivfi/internal/topo"
	"wivfi/internal/vfi"
)

// planWork is a reading of the process-wide work counters of design-time
// planning: WI-placement anneals, the path-free hop scorings they run,
// mesh thread-mapping anneals and VFI clusterings.
type planWork struct{ anneals, scorings, mappings, clusterings int64 }

func readPlanWork() planWork {
	tot := obs.CounterTotals()
	return planWork{
		anneals:     tot[place.MetricMinHopAnneals],
		scorings:    tot[noc.MetricRoutedAvgHopsCalls],
		mappings:    tot[place.MetricMapThreadsCalls],
		clusterings: tot[vfi.MetricClusterCalls],
	}
}

// since is the work done since the reading w0.
func (w planWork) since(w0 planWork) planWork {
	return planWork{w.anneals - w0.anneals, w.scorings - w0.scorings, w.mappings - w0.mappings, w.clusterings - w0.clusterings}
}

// renderCacheSections renders the reproduce sections that read every
// pipeline run, both WiNoC placements included, exactly as cmd/reproduce
// prints them.
func renderCacheSections(t *testing.T, s *Suite) string {
	t.Helper()
	t2, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	f6, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	f7, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	f8, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	return FormatTable2(t2) + FormatFig6(f6) + FormatFig7(f7) + FormatFig8(f8) + FormatSummary(Summarize(f8))
}

// samePipeline reports how got's results differ from want's, or "".
func samePipeline(got, want *Pipeline) string {
	switch {
	case !reflect.DeepEqual(got.Profile, want.Profile):
		return "profile"
	case !reflect.DeepEqual(got.Plan, want.Plan):
		return "plan"
	case !reflect.DeepEqual(got.Baseline.Report, want.Baseline.Report):
		return "baseline run"
	case !reflect.DeepEqual(got.VFI1Mesh.Report, want.VFI1Mesh.Report):
		return "VFI 1 mesh run"
	case !reflect.DeepEqual(got.VFI2Mesh.Report, want.VFI2Mesh.Report):
		return "VFI 2 mesh run"
	case !reflect.DeepEqual(got.WiNoC[sim.MinHop].Report, want.WiNoC[sim.MinHop].Report):
		return "min-hop WiNoC run"
	case !reflect.DeepEqual(got.WiNoC[sim.MaxWireless].Report, want.WiNoC[sim.MaxWireless].Report):
		return "max-wireless WiNoC run"
	case got.BestStrategy != want.BestStrategy:
		return "best strategy"
	}
	return ""
}

// TestSuiteUsesDesignCache: a suite sharing a cache directory with the
// suite that filled it loads every design and both WiNoC placements from
// it, and prints exactly what an uncached suite prints — cold and warm,
// at -j 1 and -j 2 in both orders.
func TestSuiteUsesDesignCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every pipeline four times")
	}
	cfg := DefaultConfig()
	want := renderCacheSections(t, sharedSuite(t))
	for _, j := range [][2]int{{1, 2}, {2, 1}} {
		dir := t.TempDir()
		cold := NewSuite(cfg, WithParallelism(j[0]), WithCacheDir(dir))
		if got := renderCacheSections(t, cold); got != want {
			t.Errorf("cold -j %d output differs from the uncached suite:\n%s\nwant:\n%s", j[0], got, want)
		}
		warm := NewSuite(cfg, WithParallelism(j[1]), WithCacheDir(dir))
		if got := renderCacheSections(t, warm); got != want {
			t.Errorf("warm -j %d output differs from the uncached suite:\n%s\nwant:\n%s", j[1], got, want)
		}
		for _, name := range AppOrder {
			pc, err := cold.Pipeline(name)
			if err != nil {
				t.Fatal(err)
			}
			pw, err := warm.Pipeline(name)
			if err != nil {
				t.Fatal(err)
			}
			if pc.FromCache || !pw.FromCache {
				t.Errorf("%s: FromCache cold %v, warm %v; want false, true", name, pc.FromCache, pw.FromCache)
			}
			if diff := samePipeline(pw, pc); diff != "" {
				t.Errorf("%s: %s differs when built from the cache", name, diff)
			}
		}
	}
}

// runSections runs every section a flagless reproduce prints, in order,
// and returns their text; work records each section's planning work.
func runSections(t *testing.T, s *Suite, work map[string]planWork) string {
	t.Helper()
	var b strings.Builder
	for _, sec := range Sections {
		if sec.OptIn {
			continue
		}
		w0 := readPlanWork()
		text, _, err := sec.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", sec.ID, err)
		}
		work[sec.ID] = readPlanWork().since(w0)
		b.WriteString(text)
	}
	return b.String()
}

// TestWarmPrewarmRunsNoPlacementWork is the machine-independent gate on
// the plan store and the design cache. A cold Prewarm anneals one min-hop
// placement per app. A cold flagless run clusters once per app, makes one
// mesh mapping per distinct (app, thread grouping), no clustering in the
// margin sweep, and exactly the WI anneals and hop scorings of its
// distinct min-hop decisions made one by one. A warm one, at -j 1 and
// -j 2, plans nothing at all: no clustering, mapping, WI anneal or hop
// scoring. A placements file of the version before mesh records still
// loads as a design hit and is rewritten at the current version.
func TestWarmPrewarmRunsNoPlacementWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every section three times")
	}
	dir := t.TempDir()
	cfg := DefaultConfig()
	cold := NewSuite(cfg, WithParallelism(2), WithCacheDir(dir))
	w0 := readPlanWork()
	if err := cold.Prewarm(AppOrder...); err != nil {
		t.Fatal(err)
	}
	if pre := readPlanWork().since(w0); pre.anneals != int64(len(AppOrder)) || pre.scorings == 0 {
		t.Errorf("cold prewarm ran %d anneals and %d scorings, want %d anneals and some scorings",
			pre.anneals, pre.scorings, len(AppOrder))
	}
	work := map[string]planWork{}
	want := runSections(t, cold, work)
	coldWork := readPlanWork().since(w0)
	distinct := 0
	for _, name := range AppOrder {
		pl, err := cold.Pipeline(name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := sim.BaselineAssign(cfg.Build)
		if err != nil {
			t.Fatal(err)
		}
		groupings := [][]int{base}
		for _, a := range [][]int{pl.Plan.VFI1.Assign, pl.Plan.VFI2.Assign} {
			if !slices.ContainsFunc(groupings, func(g []int) bool { return slices.Equal(g, a) }) {
				groupings = append(groupings, a)
			}
		}
		distinct += len(groupings)
	}
	if coldWork.mappings != int64(distinct) || distinct != 7 {
		t.Errorf("cold run made %d mesh mappings for %d distinct inputs, want 7 of 7", coldWork.mappings, distinct)
	}
	if coldWork.clusterings != int64(len(AppOrder)) || work["margins"].clusterings != 0 {
		t.Errorf("cold run clustered %d times, %d in the margin sweep; want %d and 0",
			coldWork.clusterings, work["margins"].clusterings, len(AppOrder))
	}
	// Every distinct min-hop decision the cold run stored, planned again
	// one by one without a store, is the WI work the run may do.
	var direct planWork
	for _, name := range AppOrder {
		pl, err := cold.Pipeline(name)
		if err != nil {
			t.Fatal(err)
		}
		path, err := placementsPath(dir, cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var f placementsFile
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatal(err)
		}
		ps := pl.plans
		mesh, err := sim.MeshMapping(cfg.Build, ps.winoc.Assign, ps.traffic)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range f.Plans {
			if rec.Strategy != sim.MinHop.String() {
				continue
			}
			d0 := readPlanWork()
			p, err := sim.PlanWiNoC(ps.variant(rec.KIntra, rec.KInter), ps.winoc, ps.traffic, sim.MinHop, mesh)
			if err != nil {
				t.Fatal(err)
			}
			d := readPlanWork().since(d0)
			direct.anneals += d.anneals
			direct.scorings += d.scorings
			if !reflect.DeepEqual(p, place.Placement{ThreadToTile: rec.ThreadToTile, WIs: rec.WIs}) {
				t.Errorf("%s: stored %+v differs from planning it again", name, rec.planKey)
			}
		}
	}
	if coldWork.anneals != direct.anneals || coldWork.scorings != direct.scorings {
		t.Errorf("cold run ran %d anneals and %d scorings; its distinct min-hop decisions take %d and %d",
			coldWork.anneals, coldWork.scorings, direct.anneals, direct.scorings)
	}
	if direct.anneals <= int64(len(AppOrder)) {
		t.Errorf("cold run stored %d min-hop decisions, want the %d pipelines' and the k_intra sweep's",
			direct.anneals, len(AppOrder))
	}
	for _, j := range []int{1, 2} {
		warm := NewSuite(cfg, WithParallelism(j), WithCacheDir(dir))
		w0 := readPlanWork()
		if err := warm.Prewarm(AppOrder...); err != nil {
			t.Fatal(err)
		}
		got := runSections(t, warm, work)
		if w := readPlanWork().since(w0); w != (planWork{}) {
			t.Errorf("warm -j %d run did %+v, want no planning work; per section: %+v", j, w, work)
		}
		if got != want {
			t.Errorf("warm -j %d output differs from the cold run", j)
		}
	}

	// A version 1 file holds the two WiNoC placements of the suite's own
	// small-world config and nothing else.
	path, err := placementsPath(dir, cfg, "wc")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f placementsFile
	if err := json.Unmarshal(v2, &f); err != nil {
		t.Fatal(err)
	}
	own := cfg.Build.SmallWorld
	v1 := map[string]any{"version": 1}
	for _, rec := range f.Plans {
		if rec.Strategy != meshPlan && rec.KIntra == own.KIntra && rec.KInter == own.KInter {
			v1[rec.Strategy] = place.Placement{ThreadToTile: rec.ThreadToTile, WIs: rec.WIs}
		}
	}
	raw, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	pl, err := NewSuite(cfg, WithCacheDir(dir)).Pipeline("wc")
	if err != nil {
		t.Fatal(err)
	}
	if !pl.FromCache {
		t.Error("an entry with a version 1 placements file missed the design cache")
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var again placementsFile
	if err := json.Unmarshal(raw, &again); err != nil || again.Version != placementsVersion {
		t.Fatalf("version 1 file not rewritten at version %d (err %v): %s", placementsVersion, err, raw)
	}
	for _, rec := range again.Plans {
		if !slices.ContainsFunc(f.Plans, func(r planRecord) bool { return reflect.DeepEqual(r, rec) }) {
			t.Errorf("rewritten record %+v differs from the cold run's", rec.planKey)
		}
	}
}

// coldPlacements builds one app's pipeline into a fresh cache directory and
// returns the suite's config, the directory, the pipeline and the bytes of
// the placements.json it wrote.
func coldPlacements(t testing.TB, app string) (Config, string, *Pipeline, []byte) {
	t.Helper()
	cfg := DefaultConfig()
	dir := t.TempDir()
	pl, err := NewSuite(cfg, WithCacheDir(dir)).Pipeline(app)
	if err != nil {
		t.Fatal(err)
	}
	path, err := placementsPath(dir, cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("cold build wrote no placements: %v", err)
	}
	return cfg, dir, pl, raw
}

// warmFrom rebuilds app from dir after placements.json was set to raw (nil
// removes it) and checks that the build is a design hit with the cold
// pipeline's results, that it ran want's WI anneals and mesh mappings, and
// that the file holds wantRaw afterwards.
func warmFrom(t *testing.T, label string, cfg Config, dir, app string, raw []byte, cold *Pipeline, wantRaw []byte, want planWork) {
	t.Helper()
	path, err := placementsPath(dir, cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	if raw == nil {
		err = os.Remove(path)
	} else {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	w0 := readPlanWork()
	pl, err := NewSuite(cfg, WithCacheDir(dir)).Pipeline(app)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	w := readPlanWork().since(w0)
	if !pl.FromCache {
		t.Errorf("%s: design missed the cache", label)
	}
	if diff := samePipeline(pl, cold); diff != "" {
		t.Errorf("%s: %s differs from the cold run", label, diff)
	}
	if w.anneals != want.anneals || w.mappings != want.mappings {
		t.Errorf("%s: %d anneals and %d mappings, want %d and %d", label, w.anneals, w.mappings, want.anneals, want.mappings)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, wantRaw) {
		t.Errorf("%s: placements.json not restored (err %v)", label, err)
	}
}

// TestEntryWithoutPlacementsIsADesignHit: an entry written before
// placements.json existed still loads as a design hit; its decisions are
// made once and written back.
func TestEntryWithoutPlacementsIsADesignHit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a pipeline twice")
	}
	cfg, dir, cold, raw := coldPlacements(t, "wc")
	warmFrom(t, "no placements.json", cfg, dir, "wc", nil, cold, raw, planWork{anneals: 1, mappings: 1})
}

// placementSeedApp is the app FuzzPlacementsJSON and its committed seeds
// are built for.
const placementSeedApp = "mm"

// placementSeeds derives the FuzzPlacementsJSON seeds from the cold
// placements.json of placementSeedApp's pipeline (raw) and from the same
// file after the (k_intra, k_inter) sweep added its record (full). Every
// seed but "valid" is damaged; work is what rebuilding the pipeline from
// it costs.
func placementSeeds(t testing.TB, cfg Config, raw, full []byte) map[string]struct {
	raw  []byte
	work planWork
} {
	t.Helper()
	edit := func(change func(f *placementsFile)) []byte {
		var f placementsFile
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatal(err)
		}
		change(&f)
		out, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	find := func(f *placementsFile, strategy string) *planRecord {
		for i := range f.Plans {
			if f.Plans[i].Strategy == strategy {
				return &f.Plans[i]
			}
		}
		t.Fatalf("no %s record in %s", strategy, raw)
		return nil
	}
	var f placementsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	own := cfg.Build.SmallWorld
	v1 := map[string]any{"version": 1}
	for _, st := range []sim.Strategy{sim.MinHop, sim.MaxWireless} {
		rec := find(&f, st.String())
		v1[st.String()] = place.Placement{ThreadToTile: rec.ThreadToTile, WIs: rec.WIs}
	}
	v1raw, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := topo.PartitionForAssign(cfg.Build.Chip, find(&f, meshPlan).Assign)
	if err != nil {
		t.Fatal(err)
	}
	whole := planWork{anneals: 1, mappings: 1}
	return map[string]struct {
		raw  []byte
		work planWork
	}{
		"valid":         {full, planWork{}},
		"truncated":     {raw[:len(raw)/2], whole},
		"v1":            {v1raw, whole},
		"wrong-version": {edit(func(f *placementsFile) { f.Version = placementsVersion + 1 }), whole},
		"duplicate-tile": {edit(func(f *placementsFile) {
			rec := find(f, sim.MinHop.String())
			rec.ThreadToTile[1] = rec.ThreadToTile[0]
		}), planWork{anneals: 1}},
		"out-of-region-wi": {edit(func(f *placementsFile) {
			// a switch of region 1 that hosts no WI, given to cluster 0
			rec := find(f, sim.MaxWireless.String())
			wis := slices.Concat(rec.WIs...)
			for _, s := range regions[1] {
				if !slices.Contains(wis, s) {
					rec.WIs[0][0] = s
					return
				}
			}
		}), planWork{}},
		"mesh-outside-quadrant": {edit(func(f *placementsFile) {
			// swap a thread of island 0 with one of island 1
			rec := find(f, meshPlan)
			a := slices.Index(rec.Assign, 0)
			b := slices.Index(rec.Assign, 1)
			rec.ThreadToTile[a], rec.ThreadToTile[b] = rec.ThreadToTile[b], rec.ThreadToTile[a]
		}), planWork{mappings: 1}},
		"duplicate-assignment": {edit(func(f *placementsFile) {
			rec := *find(f, meshPlan)
			f.Plans = append(f.Plans, rec)
		}), whole},
		"winoc-with-assignment": {edit(func(f *placementsFile) {
			rec := find(f, sim.MinHop.String())
			rec.Assign = find(f, meshPlan).Assign
			rec.KIntra, rec.KInter = own.KIntra, own.KInter
		}), planWork{anneals: 1}},
	}
}

// seedPath is the committed FuzzPlacementsJSON seed of that name.
func seedPath(name string) string {
	return filepath.Join("testdata", "fuzz", "FuzzPlacementsJSON", name)
}

// TestDamagedPlacementsAreRecomputed: each committed FuzzPlacementsJSON
// seed is what placementSeeds derives from today's cold files (rewrite
// them with -update), and rebuilding from a damaged one — torn, another
// version, a misplaced thread or WI, a key stored twice — is a design hit
// that recomputes only the damaged decisions, never an error, with the
// cold run's output and file.
func TestDamagedPlacementsAreRecomputed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a pipeline once per seed")
	}
	cfg, dir, cold, raw := coldPlacements(t, placementSeedApp)
	full := sweptPlacements(t, cfg, dir, cold)
	seeds := placementSeeds(t, cfg, raw, full)
	committed, err := os.ReadDir(filepath.Dir(seedPath("valid")))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range committed {
		if _, ok := seeds[e.Name()]; !ok {
			t.Errorf("committed seed %s is not one placementSeeds derives", e.Name())
		}
	}
	var names []string
	for name := range seeds {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		seed := seeds[name]
		blob := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.raw)
		if *updateGolden {
			if err := os.WriteFile(seedPath(name), []byte(blob), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if got, err := os.ReadFile(seedPath(name)); err != nil || string(got) != blob {
			t.Errorf("seed %s is stale or missing (err %v); rewrite the seeds with -update", name, err)
		}
		wantRaw := raw
		if name == "valid" {
			wantRaw = full
		}
		warmFrom(t, name, cfg, dir, placementSeedApp, seed.raw, cold, wantRaw, seed.work)
	}
}

// sweptPlacements returns the placements.json a flagless run leaves for
// pl: the cold pipeline's records plus the (k_intra, k_inter) sweep's
// (2,2) placement. The file is restored to the pipeline's own afterwards.
func sweptPlacements(t testing.TB, cfg Config, dir string, pl *Pipeline) []byte {
	t.Helper()
	path, err := placementsPath(dir, cfg, pl.App.Name)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.plans.winocSystem(pl.BestStrategy, 2, 2); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(full, raw) {
		t.Fatal("the (2,2) placement was not written back")
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return full
}

// TestPlanKeyFieldsReachKey perturbs every plan-store key field and
// requires the key to move, so two decisions differing only there are
// never shared; every field also reaches the JSON form the key and the
// stored record use.
func TestPlanKeyFieldsReachKey(t *testing.T) {
	for _, p := range keyaudit.HashFields(reflect.TypeOf(planKey{})) {
		t.Error(p)
	}
	perturb := map[string]func(*planKey){
		"Strategy": func(k *planKey) { k.Strategy = sim.MinHop.String() },
		"Assign":   func(k *planKey) { k.Assign = []int{1, 0} },
		"KIntra":   func(k *planKey) { k.KIntra = 2 },
		"KInter":   func(k *planKey) { k.KInter = 2 },
	}
	base := planKey{Strategy: meshPlan, Assign: []int{0, 1}}
	for _, p := range keyaudit.KeyFields(base, planKey.id, perturb, nil) {
		t.Error(p)
	}
}

// TestSharedMeshRoutesUnchanged: the suite's one XY route table, shared by
// every mesh system of every section, is still equal to a fresh build
// after a whole flagless run.
func TestSharedMeshRoutesUnchanged(t *testing.T) {
	s := sharedSuite(t)
	runSectionPass(t)
	shared, err := s.xy()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sim.MeshRoutes(s.Config.Build)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, fresh) {
		t.Error("the shared XY route table changed during the run")
	}
	pl, err := s.Pipeline("mm")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Baseline == nil || pl.VFI2Mesh == nil {
		t.Fatal("pipeline has no mesh runs")
	}
	sys, err := pl.plans.vfiMesh(pl.Plan.VFI2)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Routes != shared {
		t.Error("a mesh system routes on its own XY table, not the suite's")
	}
}

// FuzzPlacementsJSON feeds arbitrary bytes to the plan store of the mm
// design as its placements.json. Nothing may panic; a file the store
// rejects is deleted and seeds nothing. Every decision it accepts must
// build: a mesh mapping is a bijection keeping each thread inside its
// island's region, and a WiNoC placement of a degree pair the runs ask for
// realizes with every cluster's WIs inside its own region, one per
// channel.
func FuzzPlacementsJSON(f *testing.F) {
	cfg := DefaultConfig()
	app, err := apps.ByName(placementSeedApp)
	if err != nil {
		f.Fatal(err)
	}
	_, prof, plan, _, err := BuildDesign(cfg, app, nil, "")
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if err := saveDesign(dir, cfg, app.Name, prof, plan); err != nil {
		f.Fatal(err)
	}
	path, err := placementsPath(dir, cfg, app.Name)
	if err != nil {
		f.Fatal(err)
	}
	regions, err := topo.PartitionForAssign(cfg.Build.Chip, plan.VFI2.Assign)
	if err != nil {
		f.Fatal(err)
	}
	region := topo.RegionOf(cfg.Build.Chip.NumCores(), regions)
	own := cfg.Build.SmallWorld
	asked := [][2]float64{{own.KIntra, own.KInter}, {2, 2}}
	xy := meshRoutes(cfg)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		ps := newPlanStore(cfg.Build, prof.Traffic, plan.VFI2, xy, path, true)
		if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
			if len(ps.flights) != 0 {
				t.Fatalf("rejected file seeded %d decisions", len(ps.flights))
			}
			return
		}
		for id, fl := range ps.flights {
			rec, m := fl.key, fl.m
			if err := m.Validate(); err != nil {
				t.Fatalf("%s: accepted mapping: %v", id, err)
			}
			if rec.Strategy == meshPlan {
				recRegions, err := topo.PartitionForAssign(cfg.Build.Chip, rec.Assign)
				if err != nil {
					t.Fatalf("%s: accepted a mapping for a bad grouping: %v", id, err)
				}
				recRegion := topo.RegionOf(len(rec.Assign), recRegions)
				for th, tile := range m.ThreadToTile {
					if recRegion[tile] != rec.Assign[th] {
						t.Fatalf("%s: thread %d mapped outside its island", id, th)
					}
				}
				continue
			}
			if !slices.Contains(asked, [2]float64{rec.KIntra, rec.KInter}) {
				continue // never realized: no run asks for these degrees
			}
			st := sim.MinHop
			if rec.Strategy == sim.MaxWireless.String() {
				st = sim.MaxWireless
			}
			sys, err := ps.winocSystem(st, rec.KIntra, rec.KInter)
			if err != nil {
				t.Fatalf("%s: accepted placement does not build: %v", id, err)
			}
			for th, tile := range sys.Mapping.ThreadToTile {
				if region[tile] != plan.VFI2.Assign[th] {
					t.Fatalf("%s: thread %d placed outside its island", id, th)
				}
			}
			// Each region hosts WIsPerCluster WIs, one per channel.
			tp := sys.Routes.Topology()
			if len(tp.WIs) != len(regions)*topo.WIsPerCluster {
				t.Fatalf("%s: accepted %d WIs", id, len(tp.WIs))
			}
			seen := map[[2]int]bool{}
			for _, s := range tp.WIs {
				key := [2]int{region[s], tp.ChannelOf[s]}
				if seen[key] {
					t.Fatalf("%s: region %d has two WIs on channel %d", id, key[0], key[1])
				}
				seen[key] = true
			}
		}
	})
}

// TestPlanStoreSingleflight: goroutines asking one store for the same
// decisions at once share one computation each, get the same mapping,
// and leave a file holding every decision. Run it under -race.
func TestPlanStoreSingleflight(t *testing.T) {
	cfg := DefaultConfig()
	app, err := apps.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	_, prof, plan, _, err := BuildDesign(cfg, app, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := saveDesign(dir, cfg, app.Name, prof, plan); err != nil {
		t.Fatal(err)
	}
	path, err := placementsPath(dir, cfg, app.Name)
	if err != nil {
		t.Fatal(err)
	}
	ps := newPlanStore(cfg.Build, prof.Traffic, plan.VFI2, meshRoutes(cfg), path, true)
	own := cfg.Build.SmallWorld
	const callers = 8
	systems := make([][2]*sim.System, callers)
	errs := make([]error, callers)
	w0 := readPlanWork()
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if systems[i][0], errs[i] = ps.vfiMesh(plan.VFI2); errs[i] != nil {
				return
			}
			systems[i][1], errs[i] = ps.winocSystem(sim.MinHop, own.KIntra, own.KInter)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if w := readPlanWork().since(w0); w.mappings != 1 || w.anneals != 1 {
		t.Errorf("%d callers made %d mappings and %d anneals, want 1 and 1", callers, w.mappings, w.anneals)
	}
	for i, sys := range systems {
		if &sys[0].Mapping.ThreadToTile[0] != &systems[0][0].Mapping.ThreadToTile[0] {
			t.Errorf("caller %d got its own copy of the mesh mapping", i)
		}
		if !reflect.DeepEqual(sys[1].Mapping, systems[0][1].Mapping) {
			t.Errorf("caller %d got another min-hop mapping", i)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f placementsFile
	if err := json.Unmarshal(raw, &f); err != nil || len(f.Plans) != 2 {
		t.Errorf("store wrote %d records (err %v), want the mesh mapping and the min-hop placement", len(f.Plans), err)
	}
}

// TestPlanStoreKeepsOtherWritersRecords: two unseeded stores on one entry,
// as two processes building the same design cold, each make a different
// decision; the file keeps both, and a store seeded from it makes
// neither again.
func TestPlanStoreKeepsOtherWritersRecords(t *testing.T) {
	cfg := DefaultConfig()
	app, err := apps.ByName(placementSeedApp)
	if err != nil {
		t.Fatal(err)
	}
	_, prof, plan, _, err := BuildDesign(cfg, app, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := saveDesign(dir, cfg, app.Name, prof, plan); err != nil {
		t.Fatal(err)
	}
	path, err := placementsPath(dir, cfg, app.Name)
	if err != nil {
		t.Fatal(err)
	}
	own := cfg.Build.SmallWorld
	xy := meshRoutes(cfg)
	decisions := []func(ps *planStore) error{
		func(ps *planStore) error { _, err := ps.meshMapping(plan.VFI2.Assign); return err },
		func(ps *planStore) error {
			_, _, err := ps.winocPlacement(sim.MaxWireless, own.KIntra, own.KInter)
			return err
		},
	}
	for _, decide := range decisions {
		if err := decide(newPlanStore(cfg.Build, prof.Traffic, plan.VFI2, xy, path, false)); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f placementsFile
	if err := json.Unmarshal(raw, &f); err != nil || len(f.Plans) != 2 {
		t.Fatalf("two writers left %d records (err %v), want both decisions", len(f.Plans), err)
	}
	w0 := readPlanWork()
	ps := newPlanStore(cfg.Build, prof.Traffic, plan.VFI2, xy, path, true)
	for _, rec := range f.Plans {
		id, err := rec.id()
		if err != nil {
			t.Fatal(err)
		}
		if fl := ps.flights[id]; fl == nil || !fl.made {
			t.Errorf("seeded store lacks %+v", rec.planKey)
		}
	}
	for _, decide := range decisions {
		if err := decide(ps); err != nil {
			t.Fatal(err)
		}
	}
	if w := readPlanWork().since(w0); w != (planWork{}) {
		t.Errorf("seeded store did %+v, want no planning work", w)
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, raw) {
		t.Errorf("seeded store rewrote the file (err %v)", err)
	}
}
