package expt

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wivfi/internal/keyaudit"
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

func TestDesignCacheRoundTrip(t *testing.T) {
	s := sharedSuite(t)
	pl, err := s.Pipeline("mm")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := saveDesign(dir, s.Config, "mm", pl.Profile, pl.Plan); err != nil {
		t.Fatal(err)
	}
	prof, plan, outcome := loadDesign(dir, s.Config, "mm")
	if outcome != cacheHit {
		t.Fatalf("outcome = %v immediately after save, want cacheHit", outcome)
	}
	if !reflect.DeepEqual(prof, pl.Profile) {
		t.Error("profile changed across the cache round trip")
	}
	if !reflect.DeepEqual(plan, pl.Plan) {
		t.Errorf("plan changed across the cache round trip:\nsaved:  %+v\nloaded: %+v", pl.Plan, plan)
	}
}

// TestConcurrentSaveDesignSameKey races many writers of one cache key —
// the serving layer's singleflight makes duplicate writes rare but cannot
// rule them out across processes. Every writer must succeed (losing the
// rename race is success), the surviving entry must load as a clean hit
// with the exact artifacts, and no temp directories may leak.
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
			errs[i] = saveDesign(dir, s.Config, "mm", pl.Profile, pl.Plan)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("writer %d: %v", i, err)
		}
	}
	prof, plan, outcome := loadDesign(dir, s.Config, "mm")
	if outcome != cacheHit {
		t.Fatalf("outcome = %v after %d racing writers, want cacheHit", outcome, writers)
	}
	if !reflect.DeepEqual(prof, pl.Profile) || !reflect.DeepEqual(plan, pl.Plan) {
		t.Error("artifacts damaged by racing writers")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("temp directory %s leaked", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("%d cache entries after racing same-key writers, want 1", len(entries))
	}
}

// TestSaveDesignNeverExposesPartialEntries: while a writer is mid-save, a
// concurrent reader sees either nothing (miss) or the complete entry (hit)
// — never the corrupt classification that a torn multi-file write used to
// produce.
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
			if _, _, outcome := loadDesign(dir, s.Config, "mm"); outcome == cacheCorrupt {
				t.Error("reader observed a partially written entry")
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		if err := saveDesign(dir, s.Config, "mm", pl.Profile, pl.Plan); err != nil {
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
	if err := saveDesign(dir, s.Config, "mm", pl.Profile, pl.Plan); err != nil {
		t.Fatal(err)
	}
	ed, err := entryDir(dir, s.Config, "mm")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ed, "plan.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, outcome := loadDesign(dir, s.Config, "mm"); outcome != cacheCorrupt {
		t.Errorf("corrupt plan.json classified %v, want cacheCorrupt", outcome)
	}
	// The damaged entry must have been evicted, so the next load is a
	// clean miss rather than corrupt again.
	if _, err := os.Stat(ed); !os.IsNotExist(err) {
		t.Errorf("corrupt entry not evicted from disk (stat err = %v)", err)
	}
	if _, _, outcome := loadDesign(dir, s.Config, "mm"); outcome != cacheMiss {
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

	ed, err := entryDir(dir, cfg, "wc")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(ed, "vfi2.json"), 3); err != nil {
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
	wrongSize := []byte(`{"version":1,"util":[0.5,0.5],"traffic":[[0,1],[1,0]]}`)
	if err := os.WriteFile(filepath.Join(ed, "profile.json"), wrongSize, 0o644); err != nil {
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
