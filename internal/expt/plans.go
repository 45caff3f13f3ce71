package expt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"wivfi/internal/noc"
	"wivfi/internal/place"
	"wivfi/internal/platform"
	"wivfi/internal/sim"
)

// A pipeline's design-time decisions — the thread mapping of every mesh
// system and the thread mapping plus WI placement of every WiNoC — are
// made once per pipeline by its plan store and reused by every system
// built from them: the pipeline's five systems, the (k_intra, k_inter)
// sweep, the mesh studies and the timeline replay. A pipeline whose design
// came from the disk cache seeds its store from the entry's
// placements.json, and every decision the store has to make is written
// back, so a warm run plans nothing.
//
// placements.json is derived from the entry's own profile and plan, so it
// shares their key and carries its own version instead of a new
// cacheSchemaVersion: entries written before it existed, or holding an
// older version, keep loading as design hits and gain a current file on
// their next build.

// placementsVersion versions placements.json; bump it when the meaning of
// a stored record changes. A file of another version is discarded and
// recomputed, like a damaged one. Version 1 held the two WiNoC placements
// of the suite's own small-world config only.
const placementsVersion = 2

// meshPlan is planKey.Strategy of a mesh thread mapping.
const meshPlan = "mesh"

// planKey names one decision of a pipeline's plan store. Everything else a
// decision depends on is fixed per pipeline — the chip, the profiled
// traffic, the placement options, the rest of the small-world config and,
// for a WiNoC, the plan's VFI 2 islands — so the key holds only what
// varies between the decisions of one pipeline.
type planKey struct {
	// Strategy is meshPlan for a mesh system's thread mapping, or the
	// name of a WiNoC placement strategy (sim.Strategy.String).
	Strategy string `json:"strategy"`
	// Assign is a mesh mapping's thread grouping: thread i is mapped into
	// the region of island Assign[i].
	Assign []int `json:"assign,omitempty"`
	// KIntra and KInter are a WiNoC placement's small-world degrees.
	KIntra float64 `json:"k_intra,omitempty"`
	KInter float64 `json:"k_inter,omitempty"`
}

// id is the key's canonical form, the store's map key.
func (k planKey) id() (string, error) {
	b, err := json.Marshal(k)
	return string(b), err
}

// planRecord is one stored decision: a mesh mapping has no WIs.
type planRecord struct {
	planKey
	ThreadToTile []int   `json:"thread_to_tile"`
	WIs          [][]int `json:"wis,omitempty"`
}

// placementsFile is the on-disk schema of placements.json. Records are
// sorted by key, so equal decision sets write equal bytes.
type placementsFile struct {
	Version int          `json:"version"`
	Plans   []planRecord `json:"plans"`
}

// planFlight is the singleflight slot of one decision: the first caller
// makes it under once, concurrent and later callers wait for and share it.
// p and m are read-only once made.
type planFlight struct {
	once sync.Once
	key  planKey
	p    place.Placement
	m    place.Mapping // p's thread mapping, checked against its islands
	err  error
	made bool // p and m are made and checked; guarded by planStore.mu
}

// planStore makes each distinct decision of one pipeline once.
type planStore struct {
	build   sim.BuildConfig
	traffic [][]float64
	winoc   platform.VFIConfig // the islands every WiNoC is planned for
	xy      func() (*noc.RouteTable, error)
	path    string // placements.json to write back to; "" writes nothing

	mu      sync.Mutex
	flights map[string]*planFlight // by planKey.id

	saveMu sync.Mutex // serializes write-backs
}

// newPlanStore returns the store of a pipeline with the given traffic and
// WiNoC islands. xy returns the chip's shared XY route table. With a
// non-empty path the store writes its decisions back to that
// placements.json, and with seed it first loads the file's decisions.
func newPlanStore(build sim.BuildConfig, traffic [][]float64, winoc platform.VFIConfig,
	xy func() (*noc.RouteTable, error), path string, seed bool) *planStore {
	ps := &planStore{
		build:   build,
		traffic: traffic,
		winoc:   winoc,
		xy:      xy,
		path:    path,
		flights: map[string]*planFlight{},
	}
	if seed && path != "" && !ps.absorb() {
		os.Remove(ps.path) // best effort, as for a damaged entry
	}
	return ps
}

// absorb adds the decisions of placements.json that the store has not
// made or started. It reports false for a file that does not parse, has
// another version or holds one key twice: none of its decisions is taken,
// and they are made again and written back. A record that does not fit
// its islands is skipped the same way, one decision at a time. A missing
// file holds no decisions.
func (ps *planStore) absorb() bool {
	raw, err := os.ReadFile(ps.path)
	if err != nil {
		return true
	}
	var f placementsFile
	ok := json.Unmarshal(raw, &f) == nil && f.Version == placementsVersion
	ids := make([]string, len(f.Plans))
	seen := map[string]bool{}
	for i := 0; ok && i < len(f.Plans); i++ {
		var err error
		ids[i], err = f.Plans[i].id()
		ok = err == nil && !seen[ids[i]]
		seen[ids[i]] = true
	}
	if !ok {
		return false
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i, rec := range f.Plans {
		if ps.flights[ids[i]] != nil {
			continue
		}
		p := place.Placement{ThreadToTile: rec.ThreadToTile, WIs: rec.WIs}
		m, err := ps.check(rec.planKey, p)
		if err != nil {
			continue
		}
		fl := &planFlight{key: rec.planKey, p: p, m: m, made: true}
		fl.once.Do(func() {})
		ps.flights[ids[i]] = fl
	}
	return true
}

// check validates a decision against the islands it was made for and
// returns its thread mapping.
func (ps *planStore) check(k planKey, p place.Placement) (place.Mapping, error) {
	switch k.Strategy {
	case meshPlan:
		if len(p.WIs) != 0 || k.KIntra != 0 || k.KInter != 0 {
			return place.Mapping{}, fmt.Errorf("expt: mesh mapping record with WiNoC fields")
		}
		return place.CheckMapping(ps.build.Chip, k.Assign, p.ThreadToTile)
	case sim.MinHop.String(), sim.MaxWireless.String():
		if k.Assign != nil {
			return place.Mapping{}, fmt.Errorf("expt: WiNoC placement record with an assignment")
		}
		return p.Check(ps.build.Chip, ps.winoc.Assign)
	}
	return place.Mapping{}, fmt.Errorf("expt: unknown plan strategy %q", k.Strategy)
}

// decide returns the decision for k, making it with plan on first use and
// writing it back.
func (ps *planStore) decide(k planKey, plan func() (place.Placement, error)) (place.Placement, place.Mapping, error) {
	id, err := k.id()
	if err != nil {
		return place.Placement{}, place.Mapping{}, err
	}
	ps.mu.Lock()
	fl := ps.flights[id]
	if fl == nil {
		fl = &planFlight{key: k}
		ps.flights[id] = fl
	}
	ps.mu.Unlock()
	fl.once.Do(func() {
		if fl.p, fl.err = plan(); fl.err != nil {
			return
		}
		if fl.m, fl.err = ps.check(k, fl.p); fl.err != nil {
			return
		}
		ps.mu.Lock()
		fl.made = true
		ps.mu.Unlock()
		ps.save()
	})
	return fl.p, fl.m, fl.err
}

// meshMapping returns the min-distance thread mapping of a mesh system
// whose threads are grouped by assign.
func (ps *planStore) meshMapping(assign []int) (place.Mapping, error) {
	_, m, err := ps.decide(planKey{Strategy: meshPlan, Assign: assign}, func() (place.Placement, error) {
		m, err := sim.MeshMapping(ps.build, assign, ps.traffic)
		return place.Placement{ThreadToTile: m.ThreadToTile}, err
	})
	return m, err
}

// winocPlacement returns the WiNoC placement of strategy st on the
// small-world fabric with degrees (kIntra, kInter), and its mapping.
func (ps *planStore) winocPlacement(st sim.Strategy, kIntra, kInter float64) (place.Placement, place.Mapping, error) {
	cfg := ps.variant(kIntra, kInter)
	return ps.decide(planKey{Strategy: st.String(), KIntra: kIntra, KInter: kInter}, func() (place.Placement, error) {
		var mesh place.Mapping
		if st == sim.MinHop {
			// min-hop starts from the VFI mesh's mapping of the same islands
			var err error
			if mesh, err = ps.meshMapping(ps.winoc.Assign); err != nil {
				return place.Placement{}, err
			}
		}
		return sim.PlanWiNoC(cfg, ps.winoc, ps.traffic, st, mesh)
	})
}

// variant is the pipeline's build config with the given small-world degrees.
func (ps *planStore) variant(kIntra, kInter float64) sim.BuildConfig {
	cfg := ps.build
	cfg.SmallWorld.KIntra, cfg.SmallWorld.KInter = kIntra, kInter
	return cfg
}

// nvfiMesh builds the reporting baseline, sim.NVFIMeshMapped.
func (ps *planStore) nvfiMesh() (*sim.System, error) {
	assign, err := sim.BaselineAssign(ps.build)
	if err != nil {
		return nil, err
	}
	m, err := ps.meshMapping(assign)
	if err != nil {
		return nil, err
	}
	rt, err := ps.xy()
	if err != nil {
		return nil, err
	}
	return sim.NVFIMeshPlaced(ps.build, m, rt), nil
}

// vfiMesh builds the VFI mesh system of v, sim.VFIMesh.
func (ps *planStore) vfiMesh(v platform.VFIConfig) (*sim.System, error) {
	m, err := ps.meshMapping(v.Assign)
	if err != nil {
		return nil, err
	}
	rt, err := ps.xy()
	if err != nil {
		return nil, err
	}
	return sim.VFIMeshPlaced(ps.build, v, m, rt)
}

// winocSystem builds the VFI WiNoC of strategy st with small-world degrees
// (kIntra, kInter), sim.VFIWiNoC.
func (ps *planStore) winocSystem(st sim.Strategy, kIntra, kInter float64) (*sim.System, error) {
	p, _, err := ps.winocPlacement(st, kIntra, kInter)
	if err != nil {
		return nil, err
	}
	return sim.VFIWiNoCPlaced(ps.variant(kIntra, kInter), ps.winoc, ps.traffic, st, p)
}

// save writes every decision made so far to placements.json, best-effort:
// a temp file renamed over it, so a reader sees the old file or the new
// one, never a torn write. Saves are serialized and each writes all that
// is made when it starts, so the last one leaves the full set. Each first
// absorbs the file's records, so the decisions another process wrote
// there are kept; two processes whose saves interleave can still drop
// each other's newest records, which the next run then makes again. A
// failed write removes the file, so a rejected file is not read again.
// The entry directory must exist (saveDesign creates it).
func (ps *planStore) save() {
	if ps.path == "" {
		return
	}
	ps.saveMu.Lock()
	defer ps.saveMu.Unlock()
	ps.absorb()
	ps.mu.Lock()
	var ids []string
	for id, fl := range ps.flights {
		if fl.made {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	f := placementsFile{Version: placementsVersion, Plans: make([]planRecord, len(ids))}
	for i, id := range ids {
		fl := ps.flights[id]
		f.Plans[i] = planRecord{planKey: fl.key, ThreadToTile: fl.p.ThreadToTile, WIs: fl.p.WIs}
	}
	ps.mu.Unlock()
	if writePlacements(ps.path, f) != nil {
		os.Remove(ps.path)
	}
}

// writePlacements atomically replaces path with f.
func writePlacements(path string, f placementsFile) error {
	blob, err := json.Marshal(f)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-placements-*")
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

// placementsPath is the entry's placements.json.
func placementsPath(cacheDir string, cfg Config, appName string) (string, error) {
	dir, err := entryDir(cacheDir, cfg, appName)
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, "placements.json"), nil
}
