package expt

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wivfi/internal/keyaudit"
	"wivfi/internal/sim"
)

// TestConfigFieldsReachHash walks expt.Config and every struct it
// serializes: an unexported, json:"-" or func/chan field would drop state
// from the design-cache key, so two configs differing only there would
// share one cached design.
func TestConfigFieldsReachHash(t *testing.T) {
	for _, p := range keyaudit.HashFields(reflect.TypeOf(Config{})) {
		t.Error(p)
	}
}

// TestDesignCacheRoundTrip: an entry loads back with the exact profile,
// plan and decisions it was written with, and its file is 0644 whether it
// was written cold or rewritten by a later decision.
func TestDesignCacheRoundTrip(t *testing.T) {
	s := sharedSuite(t)
	pl, err := s.Pipeline("mm")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, err := pl.plans.meshMapping(pl.Plan.VFI2.Assign)
	if err != nil {
		t.Fatal(err)
	}
	rec := planRecord{planKey: planKey{Strategy: meshPlan, Assign: pl.Plan.VFI2.Assign}, ThreadToTile: m.ThreadToTile}
	if err := saveDesign(dir, s.Config, "mm", pl.Profile, pl.Plan, []planRecord{rec}); err != nil {
		t.Fatal(err)
	}
	path, err := entryPath(dir, s.Config, "mm")
	if err != nil {
		t.Fatal(err)
	}
	wantMode := func(when string) {
		t.Helper()
		if fi, err := os.Stat(path); err != nil || fi.Mode() != 0o644 {
			t.Errorf("entry %s: stat %v, err %v; want mode 0644", when, fi, err)
		}
	}
	wantMode("written cold")
	e, outcome := loadDesign(dir, s.Config, "mm")
	if outcome != cacheHit {
		t.Fatalf("outcome = %v immediately after save, want cacheHit", outcome)
	}
	if !reflect.DeepEqual(e.Profile, pl.Profile) {
		t.Error("profile changed across the cache round trip")
	}
	if !reflect.DeepEqual(e.Plan, pl.Plan) {
		t.Errorf("plan changed across the cache round trip:\nsaved:  %+v\nloaded: %+v", pl.Plan, e.Plan)
	}
	if !reflect.DeepEqual(e.Plans, []planRecord{rec}) {
		t.Errorf("decisions changed across the cache round trip: %+v", e.Plans)
	}

	// A later decision rewrites the entry through the plan store.
	ps := newPlanStore(s.Config.Build, pl.Profile.Traffic, pl.Plan.VFI2, s.xy, entryWriter(dir, s.Config, "mm", pl.Profile, pl.Plan), e.Plans)
	ps.release(false)
	if _, _, err := ps.winocPlacement(sim.MaxWireless, s.Config.Build.SmallWorld.KIntra, s.Config.Build.SmallWorld.KInter); err != nil {
		t.Fatal(err)
	}
	wantMode("rewritten by a decision")
	if e, outcome := loadDesign(dir, s.Config, "mm"); outcome != cacheHit || len(e.Plans) != 2 {
		t.Errorf("rewritten entry: %v with %d decisions, want a hit with 2", outcome, len(e.Plans))
	}
}

// TestConcurrentSaveDesignSameKey races many writers of one cache key —
// the serving layer's singleflight makes duplicate writes rare but cannot
// rule them out across processes. Every writer must succeed, the surviving
// entry must load as a clean hit with the exact artifacts, and no temp
// files may leak.
func TestConcurrentSaveDesignSameKey(t *testing.T) {
	s := sharedSuite(t)
	pl, err := s.Pipeline("mm")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const writers = 16
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = saveDesign(dir, s.Config, "mm", pl.Profile, pl.Plan, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("writer %d: %v", i, err)
		}
	}
	e, outcome := loadDesign(dir, s.Config, "mm")
	if outcome != cacheHit {
		t.Fatalf("outcome = %v after %d racing writers, want cacheHit", outcome, writers)
	}
	if !reflect.DeepEqual(e.Profile, pl.Profile) || !reflect.DeepEqual(e.Plan, pl.Plan) {
		t.Error("artifacts damaged by racing writers")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("temp file %s leaked", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("%d cache entries after racing same-key writers, want 1", len(entries))
	}
}

// TestSaveDesignNeverExposesPartialEntries: while a writer is mid-save, a
// concurrent reader sees either nothing (miss) or the complete entry (hit)
// — never the corrupt classification a torn write would produce.
func TestSaveDesignNeverExposesPartialEntries(t *testing.T) {
	s := sharedSuite(t)
	pl, err := s.Pipeline("mm")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, outcome := loadDesign(dir, s.Config, "mm"); outcome == cacheCorrupt {
				t.Error("reader observed a partially written entry")
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		if err := saveDesign(dir, s.Config, "mm", pl.Profile, pl.Plan, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readerWG.Wait()
}

func TestCacheKeySensitivity(t *testing.T) {
	cfg := DefaultConfig()
	base, err := cacheKey(cfg, "mm")
	if err != nil {
		t.Fatal(err)
	}
	otherApp, err := cacheKey(cfg, "wc")
	if err != nil {
		t.Fatal(err)
	}
	if base == otherApp {
		t.Error("different benchmarks share a cache key")
	}
	cfg2 := cfg
	cfg2.VFI.FreqMargin += 0.01
	otherCfg, err := cacheKey(cfg2, "mm")
	if err != nil {
		t.Fatal(err)
	}
	if base == otherCfg {
		t.Error("changing the config did not change the cache key")
	}
	again, err := cacheKey(DefaultConfig(), "mm")
	if err != nil {
		t.Fatal(err)
	}
	if base != again {
		t.Error("cache key not stable for identical inputs")
	}
}

func TestCorruptCacheEntryIsAMiss(t *testing.T) {
	s := sharedSuite(t)
	pl, err := s.Pipeline("mm")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := saveDesign(dir, s.Config, "mm", pl.Profile, pl.Plan, nil); err != nil {
		t.Fatal(err)
	}
	path, err := entryPath(dir, s.Config, "mm")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, outcome := loadDesign(dir, s.Config, "mm"); outcome != cacheCorrupt {
		t.Errorf("corrupt entry classified %v, want cacheCorrupt", outcome)
	}
	// The damaged entry must have been evicted, so the next load is a
	// clean miss rather than corrupt again.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt entry not evicted from disk (stat err = %v)", err)
	}
	if _, outcome := loadDesign(dir, s.Config, "mm"); outcome != cacheMiss {
		t.Errorf("post-eviction load classified %v, want cacheMiss", outcome)
	}
}

// TestCacheStatsClassifyOutcomes drives a suite through a miss, a hit and a
// corrupt eviction and checks the per-suite tallies surfaced to the
// reproduce summary and manifest.
func TestCacheStatsClassifyOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a pipeline four times")
	}
	dir := t.TempDir()
	cfg := DefaultConfig()

	s1 := NewSuite(cfg, WithCacheDir(dir))
	cold, err := s1.Pipeline("wc")
	if err != nil {
		t.Fatal(err)
	}
	if got := s1.CacheStats(); got != (CacheStats{Misses: 1}) {
		t.Errorf("cold suite stats = %+v, want 1 miss", got)
	}

	s2 := NewSuite(cfg, WithCacheDir(dir))
	if _, err := s2.Pipeline("wc"); err != nil {
		t.Fatal(err)
	}
	if got := s2.CacheStats(); got != (CacheStats{Hits: 1}) {
		t.Errorf("warm suite stats = %+v, want 1 hit", got)
	}

	path, err := entryPath(dir, cfg, "wc")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 3); err != nil {
		t.Fatal(err)
	}
	s3 := NewSuite(cfg, WithCacheDir(dir))
	if _, err := s3.Pipeline("wc"); err != nil {
		t.Fatal(err)
	}
	if got := s3.CacheStats(); got != (CacheStats{CorruptEvicted: 1}) {
		t.Errorf("corrupt-entry suite stats = %+v, want 1 corrupt eviction", got)
	}

	// A profile that validates on its own but is sized for another chip
	// must not count as a hit (every build of the key would then fail):
	// it is evicted and rebuilt like any other damage.
	e, outcome := loadDesign(dir, cfg, "wc")
	if outcome != cacheHit {
		t.Fatalf("rebuilt entry loads as %v, want a hit", outcome)
	}
	e.Profile = twoCoreProfile
	wrongSize, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, wrongSize, 0o644); err != nil {
		t.Fatal(err)
	}
	s4 := NewSuite(cfg, WithCacheDir(dir))
	pl, err := s4.Pipeline("wc")
	if err != nil {
		t.Fatal(err)
	}
	if got := s4.CacheStats(); got != (CacheStats{CorruptEvicted: 1}) {
		t.Errorf("wrong-size profile suite stats = %+v, want 1 corrupt eviction", got)
	}
	if diff := samePipeline(pl, cold); diff != "" {
		t.Errorf("rebuilt after a wrong-size profile: %s differs from the cold run", diff)
	}
}
