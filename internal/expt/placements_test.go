package expt

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"reflect"
	"slices"
	"testing"

	"wivfi/internal/apps"
	"wivfi/internal/noc"
	"wivfi/internal/obs"
	"wivfi/internal/place"
	"wivfi/internal/sim"
	"wivfi/internal/topo"
)

// placementWork reads the process-wide work counters of WiNoC planning:
// WI-placement anneals and the path-free hop scorings they run.
func placementWork() (anneals, scorings int64) {
	tot := obs.CounterTotals()
	return tot[place.MetricMinHopAnneals], tot[noc.MetricRoutedAvgHopsCalls]
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

// TestWarmPrewarmRunsNoPlacementWork is the machine-independent gate on
// the placement cache: a cold Prewarm anneals one min-hop placement per
// app, and a warm one anneals and scores nothing.
func TestWarmPrewarmRunsNoPlacementWork(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every pipeline twice")
	}
	dir := t.TempDir()
	cfg := DefaultConfig()
	a0, s0 := placementWork()
	if err := NewSuite(cfg, WithCacheDir(dir)).Prewarm(AppOrder...); err != nil {
		t.Fatal(err)
	}
	a1, s1 := placementWork()
	if a1-a0 != int64(len(AppOrder)) || s1 == s0 {
		t.Errorf("cold prewarm ran %d anneals and %d scorings, want %d anneals and some scorings",
			a1-a0, s1-s0, len(AppOrder))
	}
	if err := NewSuite(cfg, WithCacheDir(dir)).Prewarm(AppOrder...); err != nil {
		t.Fatal(err)
	}
	if a2, s2 := placementWork(); a2 != a1 || s2 != s1 {
		t.Errorf("warm prewarm ran %d anneals and %d scorings, want none", a2-a1, s2-s1)
	}
}

// coldPlacements builds one app's pipeline into a fresh cache directory and
// returns the suite's config, the directory, the pipeline and the bytes of
// the placements.json it wrote.
func coldPlacements(t *testing.T, app string) (Config, string, *Pipeline, []byte) {
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
// pipeline's results, that it ran wantAnneals anneals, and that the file
// holds the cold build's placements afterwards.
func warmFrom(t *testing.T, label string, cfg Config, dir, app string, raw []byte, cold *Pipeline, coldRaw []byte, wantAnneals int64) {
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
	a0, _ := placementWork()
	pl, err := NewSuite(cfg, WithCacheDir(dir)).Pipeline(app)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	a1, _ := placementWork()
	if !pl.FromCache {
		t.Errorf("%s: design missed the cache", label)
	}
	if diff := samePipeline(pl, cold); diff != "" {
		t.Errorf("%s: %s differs from the cold run", label, diff)
	}
	if a1-a0 != wantAnneals {
		t.Errorf("%s: %d anneals, want %d", label, a1-a0, wantAnneals)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, coldRaw) {
		t.Errorf("%s: placements.json not restored (err %v)", label, err)
	}
}

// TestEntryWithoutPlacementsIsADesignHit: an entry written before
// placements.json existed still loads as a design hit; its placements are
// computed once and written back.
func TestEntryWithoutPlacementsIsADesignHit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a pipeline twice")
	}
	cfg, dir, cold, raw := coldPlacements(t, "wc")
	warmFrom(t, "no placements.json", cfg, dir, "wc", nil, cold, raw, 1)
}

// TestDamagedPlacementsAreRecomputed: a placements file that is torn, has
// the wrong version, or holds a placement that does not fit the islands is
// discarded and recomputed, never an error, and the output equals the
// cold run's.
func TestDamagedPlacementsAreRecomputed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a pipeline five times")
	}
	cfg, dir, cold, raw := coldPlacements(t, "wc")
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
	regions, err := topo.PartitionForAssign(cfg.Build.Chip, cold.Plan.VFI2.Assign)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		raw     []byte
		anneals int64 // min-hop anneals the rebuild needs
	}{
		{"truncated JSON", raw[:len(raw)/2], 1},
		{"wrong version", edit(func(f *placementsFile) { f.Version = placementsVersion + 1 }), 1},
		{"duplicate tile", edit(func(f *placementsFile) { f.MinHop.ThreadToTile[1] = f.MinHop.ThreadToTile[0] }), 1},
		{"out-of-region WI", edit(func(f *placementsFile) {
			// a switch of region 1 that hosts no WI, given to cluster 0
			wis := slices.Concat(f.MaxWireless.WIs...)
			for _, s := range regions[1] {
				if !slices.Contains(wis, s) {
					f.MaxWireless.WIs[0][0] = s
					return
				}
			}
		}), 0},
	}
	for _, c := range cases {
		warmFrom(t, c.name, cfg, dir, "wc", c.raw, cold, raw, c.anneals)
	}
}

// FuzzPlacementsJSON feeds arbitrary bytes to the design-cache placement
// loader and realizes whatever it accepts for the mm design. Nothing may
// panic; a file the loader rejects is deleted; a placement that realizes
// must be a bijection inside the islands, with every cluster's WIs inside
// its own region.
func FuzzPlacementsJSON(f *testing.F) {
	cfg := DefaultConfig()
	app, err := apps.ByName("mm")
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
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		stored := loadPlacements(dir, cfg, app.Name)
		if stored == (placements{}) {
			if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("rejected placements file not deleted (stat: %v)", err)
			}
			return
		}
		for st, p := range stored {
			sys, err := sim.VFIWiNoCPlaced(cfg.Build, plan.VFI2, prof.Traffic, sim.Strategy(st), *p)
			if err != nil {
				continue // the pipeline recomputes this one
			}
			if err := sys.Mapping.Validate(); err != nil {
				t.Fatalf("%v: accepted mapping: %v", sim.Strategy(st), err)
			}
			for th, tile := range sys.Mapping.ThreadToTile {
				if region[tile] != plan.VFI2.Assign[th] {
					t.Fatalf("%v: thread %d placed outside its island", sim.Strategy(st), th)
				}
			}
			// Each region hosts WIsPerCluster WIs, one per channel.
			tp := sys.Routes.Topology()
			if len(tp.WIs) != len(regions)*topo.WIsPerCluster {
				t.Fatalf("%v: accepted %d WIs", sim.Strategy(st), len(tp.WIs))
			}
			seen := map[[2]int]bool{}
			for _, s := range tp.WIs {
				key := [2]int{region[s], tp.ChannelOf[s]}
				if seen[key] {
					t.Fatalf("%v: region %d has two WIs on channel %d", sim.Strategy(st), key[0], key[1])
				}
				seen[key] = true
			}
		}
	})
}
