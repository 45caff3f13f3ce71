package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wivfi/internal/expt"
)

func TestParseMesh(t *testing.T) {
	for _, tc := range []struct {
		in         string
		rows, cols int
		ok         bool
	}{
		{"8x8", 8, 8, true},
		{" 4X6 ", 4, 6, true},
		{"32x32", 32, 32, true},
		{"8", 0, 0, false},
		{"0x8", 0, 0, false},
		{"-2x4", 0, 0, false},
		{"axb", 0, 0, false},
	} {
		rows, cols, err := parseMesh(tc.in)
		if tc.ok && (err != nil || rows != tc.rows || cols != tc.cols) {
			t.Errorf("parseMesh(%q) = %d,%d,%v; want %d,%d", tc.in, rows, cols, err, tc.rows, tc.cols)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseMesh(%q) accepted", tc.in)
		}
	}
}

func TestSplitSizes(t *testing.T) {
	sizes, ok := splitSizes(64, []int{1, 3})
	if !ok || !reflect.DeepEqual(sizes, []int{16, 48}) {
		t.Fatalf("1:3 split of 64 = %v, %v", sizes, ok)
	}
	sizes, ok = splitSizes(16, []int{1, 1, 2})
	if !ok || sizes[0]+sizes[1]+sizes[2] != 16 || sizes[2] != 8 {
		t.Fatalf("1:1:2 split of 16 = %v, %v", sizes, ok)
	}
	// every island keeps at least one core even for extreme skews
	sizes, ok = splitSizes(4, []int{1, 1000, 1, 1})
	if !ok {
		t.Fatalf("extreme split infeasible: %v", sizes)
	}
	for _, s := range sizes {
		if s < 1 {
			t.Fatalf("empty island in %v", sizes)
		}
	}
	if _, ok := splitSizes(2, []int{1, 1, 1}); ok {
		t.Fatal("3 islands on 2 cores accepted")
	}
	// weights whose sum overflows int once produced sizes [11 10 -5]
	if sizes, ok := splitSizes(16, []int{1, 1, math.MaxInt}); ok {
		t.Fatalf("overflowing split accepted as %v", sizes)
	}
	if sizes, ok := splitSizes(16, []int{2, 0, -1}); ok {
		t.Fatalf("non-positive weights accepted as %v", sizes)
	}
	// a huge but representable skew still yields positive sizes summing to n
	sizes, ok = splitSizes(16, []int{1, 1, math.MaxInt - 2})
	if !ok || sizes[0] < 1 || sizes[1] < 1 || sizes[0]+sizes[1]+sizes[2] != 16 {
		t.Fatalf("extreme representable split = %v, %v", sizes, ok)
	}
}

func TestSpecValidateDefaults(t *testing.T) {
	s := &Spec{Meshes: []string{"8x8"}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Schema != SpecSchemaVersion || len(s.Apps) != 6 || s.Islands[0].Count != 4 ||
		s.Margins[0] != 0.35 || s.Policies[0] != "none" || s.Tier != TierMesh ||
		s.AnalyticTolerance != DefaultAnalyticTolerance {
		t.Fatalf("defaults not filled: %+v", s)
	}
	for _, bad := range []*Spec{
		{},
		{Meshes: []string{"1x1"}},
		{Meshes: []string{"40x40"}},
		{Meshes: []string{"8x8"}, Islands: []IslandAxis{{Count: 0}}},
		{Meshes: []string{"8x8"}, Islands: []IslandAxis{{Count: 2, Split: []int{1}}}},
		{Meshes: []string{"8x8"}, Policies: []string{"warp"}},
		{Meshes: []string{"8x8"}, Margins: []float64{2}},
		{Meshes: []string{"8x8"}, Tier: "optical"},
		{Meshes: []string{"8x8"}, Sample: -1},
		{Meshes: []string{"8x8"}, Schema: 99},
		{Meshes: []string{"4x4"}, Islands: []IslandAxis{{Count: 3, Split: []int{1, 1, math.MaxInt}}}},
		{Meshes: []string{"4x4"}, Apps: []string{"nope"}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}
	// the same two mistakes fail ParseSpec, not one scenario at a time
	for _, doc := range []string{
		`{"meshes":["4x4"],"apps":["wc"],"islands":[{"count":3,"split":[1,1,9223372036854775807]}]}`,
		`{"meshes":["4x4"],"apps":["nope"]}`,
	} {
		if _, err := ParseSpec([]byte(doc)); err == nil {
			t.Errorf("ParseSpec accepted %s", doc)
		}
	}
}

func TestGenerateFiltersInfeasible(t *testing.T) {
	// 5x5 = 25 cores: not divisible into 4 thread groups -> all dropped.
	s := &Spec{Meshes: []string{"5x5"}, Apps: []string{"wc"}}
	scens, skipped, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 0 || skipped == 0 {
		t.Fatalf("5x5 produced %d scenarios (%d skipped)", len(scens), skipped)
	}
	// 4x4 with 3 equal islands: 16 %% 3 != 0 -> dropped; with split it works.
	s = &Spec{Meshes: []string{"4x4"}, Apps: []string{"wc"},
		Islands: []IslandAxis{{Count: 3}, {Count: 3, Split: []int{1, 1, 2}}}}
	scens, _, err = s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 1 || len(scens[0].Sizes) != 3 {
		t.Fatalf("got %+v", scens)
	}
	// winoc tier needs >= 3 tiles per island: 2x2 with 2 islands of 2 fails.
	s = &Spec{Meshes: []string{"2x2"}, Apps: []string{"wc"}, Tier: TierWiNoC,
		Islands: []IslandAxis{{Count: 2}}}
	scens, _, err = s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 0 {
		t.Fatalf("undersized winoc islands accepted: %+v", scens)
	}
}

// TestGridKeyUniqueness is the 1k-scenario collision property: every
// scenario of a large cross-product grid gets a distinct non-empty key.
func TestGridKeyUniqueness(t *testing.T) {
	s := &Spec{
		Meshes:  []string{"4x4", "4x6", "6x6", "8x8", "8x10", "10x10", "12x12", "16x16"},
		Islands: []IslandAxis{{Count: 2}, {Count: 4}, {Count: 2, Split: []int{1, 3}}},
		Margins: []float64{0.25, 0.35, 0.45},
		Policies: []string{
			"none", "static", "util", "cap",
		},
	}
	scens, _, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) < 1000 {
		t.Fatalf("grid too small for the property: %d scenarios", len(scens))
	}
	seen := map[string]Scenario{}
	// Two scenarios must share an expt.ConfigHash exactly when they share
	// the platform shape (policy and tier are key extras, not config).
	platform := func(sc Scenario) string {
		return fmt.Sprintf("%dx%d/%d%v/m%g", sc.Rows, sc.Cols, sc.Islands, sc.Sizes, sc.Margin)
	}
	hashes := map[string]string{}
	for _, sc := range scens {
		key := sc.Key()
		if len(key) != 32 {
			t.Fatalf("scenario %s key %q not a 32-hex digest", sc.Label(), key)
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("key collision: %s vs %s", prev.Label(), sc.Label())
		}
		seen[key] = sc
		h := expt.ConfigHash(sc.Config())
		if p, ok := hashes[h]; ok && p != platform(sc) {
			t.Fatalf("config hash collision: %s vs %s", p, platform(sc))
		}
		hashes[h] = platform(sc)
	}
	t.Logf("%d scenarios, %d distinct keys, %d distinct config hashes", len(scens), len(seen), len(hashes))
}

// TestGenerateDeterministic: the scenario list (including a seeded
// subsample) is a pure function of the spec.
func TestGenerateDeterministic(t *testing.T) {
	mk := func() []Scenario {
		s := &Spec{Meshes: []string{"4x4", "8x8"}, Sample: 10, Seed: 7}
		scens, _, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return scens
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations of the same spec differ")
	}
	if len(a) != 10 {
		t.Fatalf("sample returned %d scenarios", len(a))
	}
}

func TestScenarioKeyMatchesSuiteDefaults(t *testing.T) {
	// The default-shaped scenario must share its key (and so its design
	// cache entry) with the figure suite's config.
	sc := Scenario{Rows: 8, Cols: 8, Islands: 4, App: "wc", Margin: 0.35, Policy: "none", Tier: TierMesh}
	if got, want := expt.ConfigHash(sc.Config()), expt.ConfigHash(expt.DefaultConfig()); got != want {
		t.Fatalf("default scenario config hash %s != suite default %s", got, want)
	}
	// policy/tier extras must change the key
	base := sc.Key()
	gov := sc
	gov.Policy = "util"
	winoc := sc
	winoc.Tier = TierWiNoC
	if gov.Key() == base || winoc.Key() == base || gov.Key() == winoc.Key() {
		t.Fatal("execution-mode extras did not salt the key")
	}
}

func TestJournalRoundTripAndTolerance(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.ndjson")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Key: "aaa", App: "wc", ExecSeconds: 1, EDPRatio: 0.5},
		{Key: "bbb", App: "mm", Error: "boom"},
		{Key: "aaa", App: "wc", ExecSeconds: 1, EDPRatio: 0.75}, // cannot replace the first
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// torn final line + foreign junk + schema mismatch + records with no
	// outcome must all be skipped
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	fmt.Fprintln(f, "not json at all")
	fmt.Fprintln(f, `{"schema":99,"key":"ccc"}`)
	fmt.Fprintln(f, `{"schema":1,"key":"bbb"}`)
	fmt.Fprintln(f, `{"schema":1,"key":"eee"}`)
	fmt.Fprint(f, `{"schema":1,"key":"ddd","app":"trunc`)
	f.Close()
	got, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d records, want 2: %+v", len(got), got)
	}
	if got["aaa"].EDPRatio != 0.5 {
		t.Fatalf("duplicate key replaced the first completed record: %+v", got["aaa"])
	}
	if got["bbb"].Error != "boom" {
		t.Fatalf("error record lost: %+v", got["bbb"])
	}
	if missing, err := LoadJournal(filepath.Join(dir, "absent.ndjson")); err != nil || len(missing) != 0 {
		t.Fatalf("missing journal: %v, %v", missing, err)
	}
}

func TestAtlasPureAndOrderInsensitive(t *testing.T) {
	recs := []Record{
		{Key: "b", App: "wc", Rows: 4, Cols: 4, Islands: 4, Margin: 0.35, Policy: "none", Tier: "mesh", EDP: 2, EDPRatio: 0.8, DESDeviation: 0.1, CacheHit: true, WallMS: 99},
		{Key: "a", App: "mm", Rows: 8, Cols: 8, Islands: 4, Margin: 0.35, Policy: "none", Tier: "mesh", EDP: 1, EDPRatio: 0.6, DESDeviation: 0.5},
		{Key: "c", App: "wc", Rows: 8, Cols: 8, Islands: 4, Margin: 0.35, Policy: "none", Tier: "mesh", Error: "boom"},
	}
	a1 := BuildAtlas("t", recs, 0.25)
	// reversed input order, flipped runtime-only fields
	rev := []Record{recs[2], recs[1], recs[0]}
	rev[2].CacheHit = false
	rev[2].WallMS = 1
	a2 := BuildAtlas("t", rev, 0.25)
	b1, _ := json.Marshal(a1)
	b2, _ := json.Marshal(a2)
	if string(b1) != string(b2) {
		t.Fatalf("atlas depends on record order or runtime fields:\n%s\n%s", b1, b2)
	}
	if a1.Errors != 1 || len(a1.FailedKeys) != 1 || a1.FailedKeys[0] != "c" {
		t.Fatalf("failed scenario not tracked: %+v", a1)
	}
	if len(a1.Outliers) != 1 || a1.Outliers[0].Key != "a" {
		t.Fatalf("outlier detection: %+v", a1.Outliers)
	}
	// 8x8/EDP=1 dominates nothing over 4x4 (fewer cores); both on frontier?
	// 4x4 has fewer cores, 8x8 has lower EDP -> both non-dominated.
	if len(a1.Pareto) != 2 {
		t.Fatalf("pareto: %+v", a1.Pareto)
	}
	if a1.Format() != a2.Format() {
		t.Fatal("formatted atlas differs")
	}
}

// TestRunResumeByteIdentical is the replay property on real scenarios: a
// cold full run, and an interrupted run resumed under a different
// parallelism and a pre-warmed cache, must produce DeepEqual aggregates
// and byte-identical atlases.
func TestRunResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real scenarios")
	}
	dir := t.TempDir()
	spec := &Spec{
		Name:    "resume-test",
		Meshes:  []string{"4x4"},
		Apps:    []string{"wc", "hist"},
		Margins: []float64{0.35, 0.45},
	}
	cold, err := Run(spec, Options{
		JournalPath: filepath.Join(dir, "cold.ndjson"),
		Parallelism: 8,
		CacheDir:    filepath.Join(dir, "cache-cold"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Planned != 4 || cold.Completed != 4 || cold.Errors != 0 {
		t.Fatalf("cold run: %+v", cold)
	}

	// Interrupted run: stop after 2 scenarios, then resume with -j 1 and a
	// different (cold) cache directory.
	warm := filepath.Join(dir, "cache-warm")
	part, err := Run(spec, Options{
		JournalPath:  filepath.Join(dir, "resumed.ndjson"),
		Parallelism:  4,
		CacheDir:     warm,
		MaxScenarios: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if part.Completed != 2 || part.Remaining != 2 {
		t.Fatalf("interrupted run: %+v", part)
	}
	resumed, err := Run(spec, Options{
		JournalPath: filepath.Join(dir, "resumed.ndjson"),
		Parallelism: 1,
		CacheDir:    warm, // pre-warmed by the interrupted run
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != 2 || resumed.Completed != 2 {
		t.Fatalf("resumed run: %+v", resumed)
	}

	stripRuntime := func(recs []Record) []Record {
		out := append([]Record(nil), recs...)
		for i := range out {
			out[i].CacheHit = false
			out[i].WallMS = 0
		}
		return out
	}
	if !reflect.DeepEqual(stripRuntime(cold.Records), stripRuntime(resumed.Records)) {
		t.Fatalf("deterministic record fields differ:\ncold: %+v\nresumed: %+v", cold.Records, resumed.Records)
	}
	cb, err := json.MarshalIndent(cold.Atlas, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.MarshalIndent(resumed.Atlas, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(cb) != string(rb) {
		t.Fatalf("atlases differ:\n%s\n---\n%s", cb, rb)
	}
	if cold.Atlas.Format() != resumed.Atlas.Format() {
		t.Fatal("formatted atlases differ")
	}
	if len(cold.Atlas.Outliers) != 0 {
		t.Fatalf("analytic outliers on the probe scenarios: %+v", cold.Atlas.Outliers)
	}
}
