package expt

import (
	"bytes"
	"os"
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
	"wivfi/internal/platform"
	"wivfi/internal/sim"
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
// scoring, and it writes no entry.
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
		e, outcome := loadDesign(dir, cfg, name)
		if outcome != cacheHit {
			t.Fatalf("%s: cold entry loads as %v", name, outcome)
		}
		ps := pl.plans
		mesh, err := sim.MeshMapping(cfg.Build, ps.winoc.Assign, ps.traffic)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range e.Plans {
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
			if !reflect.DeepEqual(p, rec.placement()) {
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
	// A warm run reads one entry per app and writes none.
	files := entryFiles(t, dir)
	if len(files) != len(AppOrder) {
		t.Errorf("cold run left %d files, want one entry per app", len(files))
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
		after := entryFiles(t, dir)
		for name, fi := range files {
			if fj, ok := after[name]; !ok || !os.SameFile(fi, fj) || !fi.ModTime().Equal(fj.ModTime()) {
				t.Errorf("warm -j %d run rewrote %s", j, name)
			}
		}
		if len(after) != len(files) {
			t.Errorf("warm -j %d run left %d files, want %d", j, len(after), len(files))
		}
	}
}

// entryFiles stats every file in dir, by name.
func entryFiles(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]os.FileInfo{}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = fi
	}
	return files
}

// TestEntryWithoutPlacementsIsADesignHit: an entry holding the design
// alone, as BuildDesign writes it, still loads as a design hit; its
// decisions are made once and written back, in one write that leaves the
// cold run's file.
func TestEntryWithoutPlacementsIsADesignHit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a pipeline twice")
	}
	cfg, dir, cold, raw := coldEntry(t, "wc")
	path, err := entryPath(dir, cfg, "wc")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, _, _, hit, err := BuildDesign(cfg, cold.App, nil, dir); err != nil || hit {
		t.Fatalf("BuildDesign after removing the entry: hit %v, err %v; want a miss", hit, err)
	}
	if e, outcome := loadDesign(dir, cfg, "wc"); outcome != cacheHit || len(e.Plans) != 0 {
		t.Fatalf("BuildDesign wrote %v with %d decisions, want the design alone", outcome, len(e.Plans))
	}
	w0 := readPlanWork()
	pl, err := NewSuite(cfg, WithCacheDir(dir)).Pipeline("wc")
	if err != nil {
		t.Fatal(err)
	}
	if w := readPlanWork().since(w0); w.anneals != 1 || w.mappings != 1 || w.clusterings != 0 {
		t.Errorf("did %+v, want 1 anneal, 1 mapping and no clustering", w)
	}
	if !pl.FromCache {
		t.Error("design missed the cache")
	}
	if diff := samePipeline(pl, cold); diff != "" {
		t.Errorf("%s differs from the cold run", diff)
	}
	if got := readEntryBytes(t, cfg, dir, "wc"); !bytes.Equal(got, raw) {
		t.Error("entry not written back as the cold run wrote it")
	}
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

// entryWriter is a plan store's write function for app's entry in dir.
func entryWriter(dir string, cfg Config, app string, prof platform.Profile, plan vfi.Plan) func([]planRecord) error {
	return func(recs []planRecord) error { return saveDesign(dir, cfg, app, prof, plan, recs) }
}

// TestPlanStoreSingleflight: goroutines asking one store for the same
// decisions at once share one computation each and get the same mapping;
// the store holds its writes until release, which leaves an entry holding
// every decision. Run it under -race.
func TestPlanStoreSingleflight(t *testing.T) {
	cfg := DefaultConfig()
	app, err := apps.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, prof, plan, _, err := BuildDesign(cfg, app, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	ps := newPlanStore(cfg.Build, prof.Traffic, plan.VFI2, meshRoutes(cfg), entryWriter(dir, cfg, app.Name, prof, plan), nil)
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
	if e, _ := loadDesign(dir, cfg, app.Name); len(e.Plans) != 0 {
		t.Errorf("held store wrote %d records before release", len(e.Plans))
	}
	ps.release(false)
	if e, outcome := loadDesign(dir, cfg, app.Name); outcome != cacheHit || len(e.Plans) != 2 {
		t.Errorf("store wrote %v with %d records, want a hit with the mesh mapping and the min-hop placement", outcome, len(e.Plans))
	}
}

// TestPlanStoreKeepsOtherWritersRecords: two unseeded stores on one entry,
// as two processes building the same design cold, each make a different
// decision; the entry keeps both, and a store seeded from it makes
// neither again nor rewrites it.
func TestPlanStoreKeepsOtherWritersRecords(t *testing.T) {
	cfg := DefaultConfig()
	app, err := apps.ByName(seedApp)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, prof, plan, _, err := BuildDesign(cfg, app, nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	own := cfg.Build.SmallWorld
	xy := meshRoutes(cfg)
	write := entryWriter(dir, cfg, app.Name, prof, plan)
	decisions := []func(ps *planStore) error{
		func(ps *planStore) error { _, err := ps.meshMapping(plan.VFI2.Assign); return err },
		func(ps *planStore) error {
			_, _, err := ps.winocPlacement(sim.MaxWireless, own.KIntra, own.KInter)
			return err
		},
	}
	for _, decide := range decisions {
		ps := newPlanStore(cfg.Build, prof.Traffic, plan.VFI2, xy, write, nil)
		ps.release(false)
		if err := decide(ps); err != nil {
			t.Fatal(err)
		}
	}
	e, outcome := loadDesign(dir, cfg, app.Name)
	if outcome != cacheHit || len(e.Plans) != 2 {
		t.Fatalf("two writers left %v with %d records, want both decisions", outcome, len(e.Plans))
	}
	raw := readEntryBytes(t, cfg, dir, app.Name)
	w0 := readPlanWork()
	ps := newPlanStore(cfg.Build, prof.Traffic, plan.VFI2, xy, write, e.Plans)
	for _, rec := range e.Plans {
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
	ps.release(false)
	if w := readPlanWork().since(w0); w != (planWork{}) {
		t.Errorf("seeded store did %+v, want no planning work", w)
	}
	if after := readEntryBytes(t, cfg, dir, app.Name); !bytes.Equal(after, raw) {
		t.Error("seeded store rewrote the entry")
	}
}
