package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"

	"wivfi/internal/obs"
	"wivfi/internal/platform"
	"wivfi/internal/vfi"
)

// The design cache persists the two expensive, simulation-independent
// artifacts of a pipeline — the profiling run's platform.Profile and the
// vfi.Plan — keyed by a hash of the full experiment Config plus the
// benchmark name. Everything downstream (baseline and VFI system runs) is
// deterministic given those artifacts, so a cache hit reproduces the exact
// pipeline while skipping the probe simulation and the clustering anneal.
//
// Invalidation is purely key-based: any change to the Config (platform,
// models, VFI options) or to the schema version below produces a new key,
// and stale entries are simply never read again. Deleting the cache
// directory is always safe.
//
// An entry may also hold placements.json, the pipeline's stored
// design-time decisions (see plans.go).

// cacheSchemaVersion is folded into every cache key; bump it when the
// meaning of the cached artifacts changes (e.g. the profile definition or
// the design flow itself).
const cacheSchemaVersion = 1

// Metric names registered below. Declared constants (enforced by
// wivfi-lint countersafe) so every lookup site shares one authoritative
// spelling.
const (
	MetricCacheHits           = "expt.cache.hits"
	MetricCacheMisses         = "expt.cache.misses"
	MetricCacheCorruptEvicted = "expt.cache.corrupt_evicted"
)

// Process-wide cache outcome counters (the per-Suite cacheStats below
// scope the same outcomes to one suite for its end-of-run summary).
var (
	cacheHitCounter     = obs.NewCounter(MetricCacheHits)
	cacheMissCounter    = obs.NewCounter(MetricCacheMisses)
	cacheCorruptCounter = obs.NewCounter(MetricCacheCorruptEvicted)
)

// cacheOutcome classifies one loadDesign attempt.
type cacheOutcome int

const (
	// cacheMiss: no entry on disk (or no usable key) — the clean cold path.
	cacheMiss cacheOutcome = iota
	// cacheHit: the full entry loaded and validated.
	cacheHit
	// cacheCorrupt: an entry existed but was unreadable, incomplete or
	// schema-mismatched; it has been evicted from disk.
	cacheCorrupt
)

// cacheStats counts one suite's cache outcomes.
type cacheStats struct {
	hits, misses, corrupt atomic.Int64
}

// count records one outcome on both the suite-local stats (when non-nil)
// and the process-wide counters.
func (s *cacheStats) count(o cacheOutcome) {
	switch o {
	case cacheHit:
		cacheHitCounter.Add(1)
		if s != nil {
			s.hits.Add(1)
		}
	case cacheMiss:
		cacheMissCounter.Add(1)
		if s != nil {
			s.misses.Add(1)
		}
	case cacheCorrupt:
		cacheCorruptCounter.Add(1)
		if s != nil {
			s.corrupt.Add(1)
		}
	}
}

// CacheStats is a point-in-time snapshot of a suite's design-cache
// outcomes, surfaced in the reproduce end-of-run summary and the run
// manifest.
type CacheStats struct {
	Hits           int64
	Misses         int64
	CorruptEvicted int64
}

// planMeta is the on-disk schema for the vfi.Plan fields that are not
// covered by the two VFIConfig files.
type planMeta struct {
	Version            int     `json:"version"`
	Bottlenecks        []int   `json:"bottlenecks"`
	RaisedIslands      []int   `json:"raised_islands"`
	ClusterCost        float64 `json:"cluster_cost"`
	HomogeneousPattern bool    `json:"homogeneous_pattern"`
}

// cacheKey hashes the configuration and benchmark name into the cache
// entry's directory name. Config is a tree of plain structs, so its JSON
// form is canonical (struct fields encode in declaration order). The
// optional extras salt the key for request dimensions that live outside
// the design-cache Config (the serving layer's governor knobs); with no
// extras the JSON blob — and therefore every existing key — is unchanged.
func cacheKey(cfg Config, appName string, extras ...string) (string, error) {
	blob, err := json.Marshal(struct {
		Schema int
		App    string
		Config Config
		Extras []string `json:",omitempty"`
	}{cacheSchemaVersion, appName, cfg, extras})
	if err != nil {
		return "", fmt.Errorf("expt: hashing config: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16]), nil
}

// entryDir is the directory holding one cache entry's files.
func entryDir(cacheDir string, cfg Config, appName string) (string, error) {
	key, err := cacheKey(cfg, appName)
	if err != nil {
		return "", err
	}
	return filepath.Join(cacheDir, appName+"-"+key), nil
}

// loadDesign returns the cached (profile, plan) for the key plus the
// outcome class. An absent entry is a clean miss; a present-but-damaged
// entry (unreadable file, incomplete write, schema mismatch, validation
// failure) is classified corrupt and evicted from disk so the rebuilt
// design is rewritten into a clean slot. Damage is never an error — it
// only costs recomputation.
func loadDesign(cacheDir string, cfg Config, appName string) (platform.Profile, vfi.Plan, cacheOutcome) {
	dir, err := entryDir(cacheDir, cfg, appName)
	if err != nil {
		return platform.Profile{}, vfi.Plan{}, cacheMiss
	}
	// The profile is written first and read first: if it does not exist
	// the entry was never (fully) created — a clean miss. Any later
	// failure means a damaged entry.
	corrupt := func() (platform.Profile, vfi.Plan, cacheOutcome) {
		os.RemoveAll(dir) // best effort; a read-only cache just stays damaged
		return platform.Profile{}, vfi.Plan{}, cacheCorrupt
	}
	prof, err := platform.LoadProfile(filepath.Join(dir, "profile.json"))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return platform.Profile{}, vfi.Plan{}, cacheMiss
		}
		return corrupt()
	}
	vfi1, err := platform.LoadVFIConfig(filepath.Join(dir, "vfi1.json"))
	if err != nil {
		return corrupt()
	}
	vfi2, err := platform.LoadVFIConfig(filepath.Join(dir, "vfi2.json"))
	if err != nil {
		return corrupt()
	}
	raw, err := os.ReadFile(filepath.Join(dir, "plan.json"))
	if err != nil {
		return corrupt()
	}
	var meta planMeta
	if err := json.Unmarshal(raw, &meta); err != nil || meta.Version != cacheSchemaVersion {
		return corrupt()
	}
	plan := vfi.Plan{
		VFI1:               vfi1,
		VFI2:               vfi2,
		Bottlenecks:        meta.Bottlenecks,
		RaisedIslands:      meta.RaisedIslands,
		ClusterCost:        meta.ClusterCost,
		HomogeneousPattern: meta.HomogeneousPattern,
	}
	if !fitsConfig(cfg, prof, plan) {
		return corrupt()
	}
	return prof, plan, cacheHit
}

// fitsConfig reports whether a loaded design has the shape cfg asks for:
// cfg's core count in the profile and both VFI configs, cfg's island count
// in both, and bottleneck cores and raised islands in range. Each file
// validates alone, so a design shaped for another chip would count as a
// hit and fail every later build of its key; it is damage instead.
func fitsConfig(cfg Config, prof platform.Profile, plan vfi.Plan) bool {
	n, m := cfg.Build.Chip.NumCores(), cfg.VFI.NumIslands
	if prof.NumCores() != n {
		return false
	}
	for _, v := range []platform.VFIConfig{plan.VFI1, plan.VFI2} {
		if len(v.Assign) != n || v.NumIslands() != m {
			return false
		}
	}
	for _, c := range plan.Bottlenecks {
		if c < 0 || c >= n {
			return false
		}
	}
	for _, isl := range plan.RaisedIslands {
		if isl < 0 || isl >= m {
			return false
		}
	}
	return true
}

// saveDesign writes one cache entry, best-effort: it returns the first
// error for observability (tests, logging) but callers may ignore it — a
// failed write only costs future recomputation.
//
// The entry is crash-safe and race-safe as a unit: all four files are
// written into a hidden temp directory which is then renamed into place,
// so a reader can never observe a partially written entry (a crash leaves
// only an ignored .tmp-* directory) and concurrent writers of the same key
// race on the final rename — the loser detects the winner's entry, which
// holds identical content, and quietly discards its own.
func saveDesign(cacheDir string, cfg Config, appName string, prof platform.Profile, plan vfi.Plan) error {
	dir, err := entryDir(cacheDir, cfg, appName)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(cacheDir, ".tmp-"+filepath.Base(dir)+"-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := platform.SaveProfile(filepath.Join(tmp, "profile.json"), prof); err != nil {
		return err
	}
	if err := platform.SaveVFIConfig(filepath.Join(tmp, "vfi1.json"), plan.VFI1); err != nil {
		return err
	}
	if err := platform.SaveVFIConfig(filepath.Join(tmp, "vfi2.json"), plan.VFI2); err != nil {
		return err
	}
	blob, err := json.Marshal(planMeta{
		Version:            cacheSchemaVersion,
		Bottlenecks:        plan.Bottlenecks,
		RaisedIslands:      plan.RaisedIslands,
		ClusterCost:        plan.ClusterCost,
		HomogeneousPattern: plan.HomogeneousPattern,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "plan.json"), blob, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, dir); err != nil {
		if _, statErr := os.Stat(filepath.Join(dir, "plan.json")); statErr == nil {
			// A racing writer of the same key won the rename. Its entry was
			// computed from the same (cfg, app), so the content matches ours
			// — losing the race is success.
			return nil
		}
		return err
	}
	return nil
}

// ConfigHash returns the short hex digest identifying cfg — the same
// SHA-256-based key that scopes the design cache, computed without a
// benchmark name. Run manifests carry it so before/after comparisons can
// verify they measured the same configuration.
func ConfigHash(cfg Config) string {
	key, err := cacheKey(cfg, "")
	if err != nil {
		return ""
	}
	return key
}

// RequestKey returns the short hex digest identifying one (config,
// benchmark) pair — the exact key that scopes the design cache entry. The
// serving layer uses it as the singleflight and result-store key, so a
// request is deduplicated precisely when it would reuse the same cache
// entry. Extras salt the key for request dimensions the design cache does
// not know about (governor policy and cap): governed and static requests
// must never collide in the flight map or the result memo even though
// they share one design-cache entry. No extras reproduces the historical
// key exactly.
func RequestKey(cfg Config, appName string, extras ...string) string {
	key, err := cacheKey(cfg, appName, extras...)
	if err != nil {
		return ""
	}
	return key
}

// DefaultCacheDir returns the conventional location of the design cache
// (under the user cache directory), or "" when no user cache directory is
// available — callers treat "" as cache-disabled.
func DefaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "wivfi", "pipelines")
}
