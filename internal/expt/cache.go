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
	"slices"
	"sync/atomic"

	"wivfi/internal/obs"
	"wivfi/internal/platform"
	"wivfi/internal/vfi"
)

// The design cache persists the expensive, simulation-independent design
// of a pipeline — the profiling run's platform.Profile, the vfi.Plan and
// the plan store's stored decisions (see plans.go) — as one JSON file,
// <cacheDir>/<app>-<key>.json, keyed by a hash of the full experiment
// Config plus the benchmark name. Everything downstream (baseline and VFI
// system runs) is deterministic given those artifacts, so a cache hit
// reproduces the exact pipeline while skipping the probe simulation, the
// clustering anneal and every mapping and WI-placement anneal it stored.
//
// Invalidation is purely key-based: any change to the Config (platform,
// models, VFI options) or to the schema version below produces a new key,
// and stale entries are simply never read again. Deleting the cache
// directory is always safe.

// cacheSchemaVersion is folded into every cache key and is the version of
// every entry file; bump it when the meaning of the cached artifacts
// changes (e.g. the profile definition, the design flow itself or the
// meaning of a stored decision).
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
	// cacheCorrupt: an entry existed but failed a check of readEntry; it
	// has been evicted from disk.
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

// designEntry is the on-disk schema of one entry file. Plans are sorted by
// key, so equal decision sets write equal bytes.
type designEntry struct {
	Version int              `json:"version"`
	Profile platform.Profile `json:"profile"`
	Plan    vfi.Plan         `json:"plan"`
	Plans   []planRecord     `json:"plans"`
}

// cacheKey hashes the configuration and benchmark name into the cache
// entry's file name. Config is a tree of plain structs, so its JSON
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

// entryPath is the file holding one cache entry.
func entryPath(cacheDir string, cfg Config, appName string) (string, error) {
	key, err := cacheKey(cfg, appName)
	if err != nil {
		return "", err
	}
	return filepath.Join(cacheDir, appName+"-"+key+".json"), nil
}

// loadDesign returns the cached entry for the key plus the outcome class.
// An absent file is a clean miss; a file that readEntry rejects is
// classified corrupt and evicted from disk, so the rebuilt design is
// written into a clean slot. Damage is never an error — it only costs a
// cold rebuild.
func loadDesign(cacheDir string, cfg Config, appName string) (designEntry, cacheOutcome) {
	path, err := entryPath(cacheDir, cfg, appName)
	if err != nil {
		return designEntry{}, cacheMiss
	}
	e, err := readEntry(path, cfg)
	switch {
	case err == nil:
		return e, cacheHit
	case errors.Is(err, fs.ErrNotExist):
		return designEntry{}, cacheMiss
	}
	os.Remove(path) // best effort; a read-only cache just stays damaged
	return designEntry{}, cacheCorrupt
}

// readEntry reads and checks the entry file at path: its version, the
// profile and both VFI configs on their own, their shape against cfg
// (fitsConfig), and every stored decision, of which no key may appear
// twice and each must fit the entry's own VFI 2 islands (checkDecision).
func readEntry(path string, cfg Config) (designEntry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return designEntry{}, err
	}
	var e designEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		return designEntry{}, err
	}
	if e.Version != cacheSchemaVersion {
		return designEntry{}, fmt.Errorf("expt: cache entry version %d, want %d", e.Version, cacheSchemaVersion)
	}
	if err := e.Profile.Validate(); err != nil {
		return designEntry{}, err
	}
	for _, v := range []platform.VFIConfig{e.Plan.VFI1, e.Plan.VFI2} {
		if err := v.Validate(); err != nil {
			return designEntry{}, err
		}
	}
	if !fitsConfig(cfg, e.Profile, e.Plan) {
		return designEntry{}, fmt.Errorf("expt: cache entry shaped for another chip")
	}
	seen := map[string]bool{}
	for _, rec := range e.Plans {
		id, err := rec.id()
		if err != nil {
			return designEntry{}, err
		}
		if seen[id] {
			return designEntry{}, fmt.Errorf("expt: cache entry holds %s twice", id)
		}
		seen[id] = true
		if _, err := checkDecision(cfg.Build.Chip, e.Plan.VFI2, rec); err != nil {
			return designEntry{}, err
		}
	}
	return e, nil
}

// fitsConfig reports whether a loaded design has the shape cfg asks for:
// cfg's core count in the profile and both VFI configs, cfg's island count
// in both, and bottleneck cores and raised islands in range. Each part
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

// saveDesign writes one cache entry holding prof, plan and recs,
// best-effort: it returns the first error for observability (tests,
// logging) but callers may ignore it — a failed write only costs future
// recomputation.
//
// The entry is first merged with the decisions of the file already there
// that recs does not hold, so the records another writer stored are kept;
// two writers whose saves interleave can still drop each other's newest
// records, which the next run then makes again. The file is written into
// a temp file in cacheDir that is then renamed into place, so a reader
// sees the old entry or the new one, never a torn write, and a crash
// leaves only an ignored .tmp-* file.
func saveDesign(cacheDir string, cfg Config, appName string, prof platform.Profile, plan vfi.Plan, recs []planRecord) error {
	path, err := entryPath(cacheDir, cfg, appName)
	if err != nil {
		return err
	}
	if old, err := readEntry(path, cfg); err == nil {
		recs = slices.Concat(recs, old.Plans)
	}
	byID := map[string]planRecord{}
	var ids []string
	for _, rec := range recs {
		id, err := rec.id()
		if err != nil {
			return err
		}
		if _, ok := byID[id]; !ok {
			byID[id] = rec
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	e := designEntry{Version: cacheSchemaVersion, Profile: prof, Plan: plan, Plans: make([]planRecord, len(ids))}
	for i, id := range ids {
		e.Plans[i] = byID[id]
	}
	blob, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(cacheDir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
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
