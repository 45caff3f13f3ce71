package expt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wivfi/internal/apps"
	"wivfi/internal/platform"
	"wivfi/internal/sim"
	"wivfi/internal/topo"
	"wivfi/internal/vfi"
)

// seedApp is the app whose entry FuzzDesignEntry and FuzzPlacementsJSON
// fuzz and their seeds are derived from.
const seedApp = "mm"

// twoCoreProfile validates on its own but is sized for a 2-core chip.
var twoCoreProfile = platform.Profile{Util: []float64{0.5, 0.5}, Traffic: [][]float64{{0, 1}, {1, 0}}}

// coldEntry builds one app's pipeline into a fresh cache directory and
// returns the suite's config, the directory, the pipeline and the bytes of
// the entry it wrote.
func coldEntry(t testing.TB, app string) (Config, string, *Pipeline, []byte) {
	t.Helper()
	cfg := DefaultConfig()
	dir := t.TempDir()
	pl, err := NewSuite(cfg, WithCacheDir(dir)).Pipeline(app)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, dir, pl, readEntryBytes(t, cfg, dir, app)
}

// readEntryBytes returns the bytes of app's entry in dir.
func readEntryBytes(t testing.TB, cfg Config, dir, app string) []byte {
	t.Helper()
	path, err := entryPath(dir, cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no %s entry: %v", app, err)
	}
	return raw
}

// sweptEntry returns the entry a flagless run leaves for pl: the cold
// pipeline's decisions plus the (k_intra, k_inter) sweep's (2,2)
// placement. The file is restored to the pipeline's own afterwards.
func sweptEntry(t testing.TB, cfg Config, dir string, pl *Pipeline) []byte {
	t.Helper()
	raw := readEntryBytes(t, cfg, dir, pl.App.Name)
	if _, err := pl.plans.winocSystem(pl.BestStrategy, 2, 2); err != nil {
		t.Fatal(err)
	}
	full := readEntryBytes(t, cfg, dir, pl.App.Name)
	if bytes.Equal(full, raw) {
		t.Fatal("the (2,2) placement was not written back")
	}
	path, err := entryPath(dir, cfg, pl.App.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return full
}

// decodeEntry parses the entry file raw.
func decodeEntry(t testing.TB, raw []byte) designEntry {
	t.Helper()
	var e designEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	return e
}

// designHead is the design half of the entry e: the opening of the JSON
// object, its profile, its VFI plan and a comma. Followed by a placement
// half (placementHalf) it makes an entry file.
func designHead(t testing.TB, e designEntry) []byte {
	t.Helper()
	out, err := json.Marshal(struct {
		Profile platform.Profile `json:"profile"`
		Plan    vfi.Plan         `json:"plan"`
	}{e.Profile, e.Plan})
	if err != nil {
		t.Fatal(err)
	}
	return append(out[:len(out)-1], ',')
}

// placementHalf is the rest of the entry e: its version, its stored
// decisions and the closing brace.
func placementHalf(t testing.TB, e designEntry) []byte {
	t.Helper()
	out, err := json.Marshal(struct {
		Version int          `json:"version"`
		Plans   []planRecord `json:"plans"`
	}{e.Version, e.Plans})
	if err != nil {
		t.Fatal(err)
	}
	return out[1:]
}

// namedSeed is one FuzzDesignEntry seed, which the fuzz target adds in
// order (seed#0, seed#1, ...).
type namedSeed struct {
	name string
	raw  []byte
}

// designSeeds derives the FuzzDesignEntry seeds from the entry raw: the
// entry itself, the file torn in half, another version, and a profile and
// VFI 2 islands that each validate alone but are shaped for another chip.
func designSeeds(t testing.TB, raw []byte) []namedSeed {
	t.Helper()
	edit := func(change func(e *designEntry)) []byte {
		e := decodeEntry(t, raw)
		change(&e)
		out, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	return []namedSeed{
		{"valid", raw},
		{"truncated", raw[:len(raw)/2]},
		{"wrong-version", edit(func(e *designEntry) { e.Version = cacheSchemaVersion + 1 })},
		{"two-core-profile", edit(func(e *designEntry) { e.Profile = twoCoreProfile })},
		{"two-island-vfi2", edit(func(e *designEntry) {
			assign := make([]int, len(e.Plan.VFI2.Assign))
			for i := range assign {
				assign[i] = i % 2
			}
			e.Plan.VFI2 = platform.VFIConfig{Assign: assign, Points: []platform.OperatingPoint{{VoltageV: 0.8, FreqGHz: 1}, {VoltageV: 1, FreqGHz: 2}}}
		})},
	}
}

// placementSeeds derives the FuzzPlacementsJSON seeds, placement halves of
// seedApp's entry: "valid" is that of the entry after the
// (k_intra, k_inter) sweep added its record (full); every other seed is a
// damaged copy of the cold entry's (raw).
func placementSeeds(t testing.TB, cfg Config, raw, full []byte) map[string][]byte {
	t.Helper()
	edit := func(change func(e *designEntry)) []byte {
		e := decodeEntry(t, raw)
		change(&e)
		return placementHalf(t, e)
	}
	find := func(e *designEntry, strategy string) *planRecord {
		for i := range e.Plans {
			if e.Plans[i].Strategy == strategy {
				return &e.Plans[i]
			}
		}
		t.Fatalf("no %s record in %s", strategy, raw)
		return nil
	}
	half := placementHalf(t, decodeEntry(t, raw))
	own := cfg.Build.SmallWorld
	return map[string][]byte{
		"valid":         placementHalf(t, decodeEntry(t, full)),
		"truncated":     half[:len(half)/2],
		"wrong-version": edit(func(e *designEntry) { e.Version = cacheSchemaVersion + 1 }),
		"duplicate-assignment": edit(func(e *designEntry) {
			e.Plans = append(e.Plans, *find(e, meshPlan))
		}),
		"duplicate-tile": edit(func(e *designEntry) {
			rec := find(e, sim.MinHop.String())
			rec.ThreadToTile[1] = rec.ThreadToTile[0]
		}),
		"mesh-outside-quadrant": edit(func(e *designEntry) {
			// swap a thread of island 0 with one of island 1
			rec := find(e, meshPlan)
			a := slices.Index(rec.Assign, 0)
			b := slices.Index(rec.Assign, 1)
			rec.ThreadToTile[a], rec.ThreadToTile[b] = rec.ThreadToTile[b], rec.ThreadToTile[a]
		}),
		"out-of-region-wi": edit(func(e *designEntry) {
			// a switch of region 1 that hosts no WI, given to cluster 0
			regions, err := topo.PartitionForAssign(cfg.Build.Chip, e.Plan.VFI2.Assign)
			if err != nil {
				t.Fatal(err)
			}
			rec := find(e, sim.MaxWireless.String())
			wis := slices.Concat(rec.WIs...)
			for _, s := range regions[1] {
				if !slices.Contains(wis, s) {
					rec.WIs[0][0] = s
					return
				}
			}
		}),
		"winoc-with-assignment": edit(func(e *designEntry) {
			rec := find(e, sim.MinHop.String())
			rec.Assign = find(e, meshPlan).Assign
			rec.KIntra, rec.KInter = own.KIntra, own.KInter
		}),
	}
}

// seedPath is the committed FuzzPlacementsJSON seed of that name.
func seedPath(name string) string {
	return filepath.Join("testdata", "fuzz", "FuzzPlacementsJSON", name)
}

// TestDamagedPlacementsAreRecomputed: each committed FuzzPlacementsJSON
// seed is what placementSeeds derives from today's cold entry (rewrite
// them with -update). Rebuilding mm from each FuzzDesignEntry seed and
// from each FuzzPlacementsJSON seed after the entry's design half: a
// valid entry is a design hit that plans nothing and leaves the file as
// it is. A damaged one — torn, another version, a design shaped for
// another chip, a misplaced thread or WI, a key stored twice — is evicted
// and rebuilt cold, never an error, with the cold run's results and file.
func TestDamagedPlacementsAreRecomputed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a pipeline once per seed")
	}
	cfg, dir, cold, raw := coldEntry(t, seedApp)
	full := sweptEntry(t, cfg, dir, cold)
	seeds := placementSeeds(t, cfg, raw, full)
	committed, err := os.ReadDir(filepath.Dir(seedPath("valid")))
	if err != nil && !*updateGolden {
		t.Fatal(err)
	}
	for _, e := range committed {
		if _, ok := seeds[e.Name()]; !ok {
			t.Errorf("committed seed %s is not one placementSeeds derives", e.Name())
		}
	}
	type seedCase struct {
		label string
		entry []byte
		valid bool
	}
	var cases []seedCase
	for i, s := range designSeeds(t, raw) {
		cases = append(cases, seedCase{fmt.Sprintf("FuzzDesignEntry seed#%d (%s)", i, s.name), s.raw, s.name == "valid"})
	}
	var names []string
	for name := range seeds {
		names = append(names, name)
	}
	slices.Sort(names)
	head := designHead(t, decodeEntry(t, full))
	for _, name := range names {
		seed := seeds[name]
		blob := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(seedPath(name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seedPath(name), []byte(blob), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if got, err := os.ReadFile(seedPath(name)); err != nil || string(got) != blob {
			t.Errorf("seed %s is stale or missing (err %v); rewrite the seeds with -update", name, err)
		}
		cases = append(cases, seedCase{"FuzzPlacementsJSON/" + name, append(slices.Clip(head), seed...), name == "valid"})
	}
	path, err := entryPath(dir, cfg, seedApp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if err := os.WriteFile(path, c.entry, 0o644); err != nil {
			t.Fatal(err)
		}
		w0 := readPlanWork()
		s := NewSuite(cfg, WithCacheDir(dir))
		pl, err := s.Pipeline(seedApp)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		w := readPlanWork().since(w0)
		if diff := samePipeline(pl, cold); diff != "" {
			t.Errorf("%s: %s differs from the cold run", c.label, diff)
		}
		wantStats, wantRaw := CacheStats{CorruptEvicted: 1}, raw
		if c.valid {
			wantStats, wantRaw = CacheStats{Hits: 1}, c.entry
			if w != (planWork{}) {
				t.Errorf("%s: did %+v, want no planning work", c.label, w)
			}
		}
		if got := s.CacheStats(); got != wantStats {
			t.Errorf("%s: cache stats %+v, want %+v", c.label, got, wantStats)
		}
		if got := readEntryBytes(t, cfg, dir, seedApp); !bytes.Equal(got, wantRaw) {
			t.Errorf("%s: entry not restored", c.label)
		}
	}
}

// FuzzDesignEntry writes arbitrary bytes as the mm design's entry file and
// runs the checks of fuzzEntry. Its seeds are designSeeds of the cold
// entry.
func FuzzDesignEntry(f *testing.F) {
	cfg, dir, _, raw := coldEntry(f, seedApp)
	for _, s := range designSeeds(f, raw) {
		f.Add(s.raw)
	}
	fuzzEntry(f, cfg, dir, func(raw []byte) []byte { return raw })
}

// FuzzPlacementsJSON writes arbitrary bytes as the placement half of the
// mm design's entry file — its version and stored decisions — after the
// cold entry's valid design half, so that mutations reach the decision
// checks instead of failing the profile or the VFI plan, and runs the
// checks of fuzzEntry. The committed seeds come from placementSeeds.
func FuzzPlacementsJSON(f *testing.F) {
	cfg, dir, _, raw := coldEntry(f, seedApp)
	head := designHead(f, decodeEntry(f, raw))
	fuzzEntry(f, cfg, dir, func(half []byte) []byte { return append(slices.Clip(head), half...) })
}

// fuzzEntry fuzzes the mm design's entry in dir with the file that entry
// makes of each input. Nothing may panic. An entry that loadDesign rejects
// must be evicted from disk; one it accepts as a hit must build and
// render, since a hit whose build fails is never evicted and wedges its
// key. Every decision it accepts must fit: a mesh mapping is a bijection
// keeping each thread inside its island's region, and a WiNoC placement
// of a degree pair the runs ask for realizes with every cluster's WIs
// inside its own region, one per channel.
func fuzzEntry(f *testing.F, cfg Config, dir string, entry func(raw []byte) []byte) {
	app, err := apps.ByName(seedApp)
	if err != nil {
		f.Fatal(err)
	}
	path, err := entryPath(dir, cfg, app.Name)
	if err != nil {
		f.Fatal(err)
	}
	own := cfg.Build.SmallWorld
	asked := [][2]float64{{own.KIntra, own.KInter}, {2, 2}}
	xy := meshRoutes(cfg)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, entry(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		e, outcome := loadDesign(dir, cfg, app.Name)
		switch outcome {
		case cacheCorrupt:
			if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("rejected entry not evicted (stat: %v)", err)
			}
			return
		case cacheMiss:
			t.Fatal("an entry file on disk loaded as a miss")
		}
		pl, err := buildPipeline(cfg, app, nil, dir, nil, xy, nil)
		if err != nil {
			t.Fatalf("entry loads as a hit but does not build: %v", err)
		}
		FormatTable2([]Table2Row{{App: pl.App.Name, VFI1: pl.Plan.VFI1.Points, VFI2: pl.Plan.VFI2.Points, Raised: pl.Plan.RaisedIslands}})
		regions, err := topo.PartitionForAssign(cfg.Build.Chip, e.Plan.VFI2.Assign)
		if err != nil {
			t.Fatal(err)
		}
		region := topo.RegionOf(cfg.Build.Chip.NumCores(), regions)
		for _, rec := range e.Plans {
			id, err := rec.id()
			if err != nil {
				t.Fatal(err)
			}
			fl := pl.plans.flights[id]
			if fl == nil || !fl.made {
				t.Fatalf("%s: accepted decision not seeded", id)
			}
			if err := fl.m.Validate(); err != nil {
				t.Fatalf("%s: accepted mapping: %v", id, err)
			}
			if rec.Strategy == meshPlan {
				recRegions, err := topo.PartitionForAssign(cfg.Build.Chip, rec.Assign)
				if err != nil {
					t.Fatalf("%s: accepted a mapping for a bad grouping: %v", id, err)
				}
				recRegion := topo.RegionOf(len(rec.Assign), recRegions)
				for th, tile := range fl.m.ThreadToTile {
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
			sys, err := pl.plans.winocSystem(st, rec.KIntra, rec.KInter)
			if err != nil {
				t.Fatalf("%s: accepted placement does not build: %v", id, err)
			}
			for th, tile := range sys.Mapping.ThreadToTile {
				if region[tile] != e.Plan.VFI2.Assign[th] {
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
