package expt

import (
	"encoding/json"
	"fmt"
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
// came from the disk cache seeds its store from the entry's stored
// decisions, and every decision the store has to make is written back into
// the entry (cache.go), so a warm run plans nothing.

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

// placement is the decision rec holds.
func (rec planRecord) placement() place.Placement {
	return place.Placement{ThreadToTile: rec.ThreadToTile, WIs: rec.WIs}
}

// checkDecision validates rec against chip and, for a WiNoC placement, the
// islands winoc it was made for, and returns its thread mapping.
func checkDecision(chip platform.Chip, winoc platform.VFIConfig, rec planRecord) (place.Mapping, error) {
	switch rec.Strategy {
	case meshPlan:
		if len(rec.WIs) != 0 || rec.KIntra != 0 || rec.KInter != 0 {
			return place.Mapping{}, fmt.Errorf("expt: mesh mapping record with WiNoC fields")
		}
		return place.CheckMapping(chip, rec.Assign, rec.ThreadToTile)
	case sim.MinHop.String(), sim.MaxWireless.String():
		if rec.Assign != nil {
			return place.Mapping{}, fmt.Errorf("expt: WiNoC placement record with an assignment")
		}
		return rec.placement().Check(chip, winoc.Assign)
	}
	return place.Mapping{}, fmt.Errorf("expt: unknown plan strategy %q", rec.Strategy)
}

// planFlight is the singleflight slot of one decision: the first caller
// makes it under once, concurrent and later callers wait for and share it.
// rec and m are read-only once made.
type planFlight struct {
	once sync.Once
	rec  planRecord
	m    place.Mapping // rec's thread mapping, checked against its islands
	err  error
	made bool // rec and m are made and checked; guarded by planStore.mu
}

// planStore makes each distinct decision of one pipeline once.
type planStore struct {
	build   sim.BuildConfig
	traffic [][]float64
	winoc   platform.VFIConfig // the islands every WiNoC is planned for
	xy      func() (*noc.RouteTable, error)
	write   func([]planRecord) error // writes the entry with these decisions; nil writes nothing

	mu      sync.Mutex
	flights map[string]*planFlight // by planKey.id

	saveMu sync.Mutex // serializes writes; guards held and stale
	held   bool       // writes wait for release
	stale  bool       // a decision made while held is not written yet
}

// newPlanStore returns the store of a pipeline with the given traffic and
// WiNoC islands, holding the decisions of seed, which must pass
// checkDecision (readEntry checks every stored one). xy returns the chip's
// shared XY route table. A store with a write function holds its writes
// until release, so the decisions of a whole pipeline build cost one
// write; after that every new decision is written as it is made.
func newPlanStore(build sim.BuildConfig, traffic [][]float64, winoc platform.VFIConfig,
	xy func() (*noc.RouteTable, error), write func([]planRecord) error, seed []planRecord) *planStore {
	ps := &planStore{
		build:   build,
		traffic: traffic,
		winoc:   winoc,
		xy:      xy,
		write:   write,
		flights: map[string]*planFlight{},
		held:    true,
	}
	for _, rec := range seed {
		id, err := rec.id()
		if err != nil {
			continue
		}
		m, err := checkDecision(build.Chip, winoc, rec)
		if err != nil {
			continue
		}
		fl := &planFlight{rec: rec, m: m, made: true}
		fl.once.Do(func() {})
		ps.flights[id] = fl
	}
	return ps
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
		fl = &planFlight{rec: planRecord{planKey: k}}
		ps.flights[id] = fl
	}
	ps.mu.Unlock()
	fl.once.Do(func() {
		p, err := plan()
		if err != nil {
			fl.err = err
			return
		}
		fl.rec.ThreadToTile, fl.rec.WIs = p.ThreadToTile, p.WIs
		if fl.m, fl.err = checkDecision(ps.build.Chip, ps.winoc, fl.rec); fl.err != nil {
			return
		}
		ps.mu.Lock()
		fl.made = true
		ps.mu.Unlock()
		ps.save()
	})
	return fl.rec.placement(), fl.m, fl.err
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

// save writes the entry with every decision made so far, best-effort,
// or marks it stale while the store is held. Saves are serialized and each
// writes all that is made when it starts, so the last one leaves the full
// set.
func (ps *planStore) save() {
	if ps.write == nil {
		return
	}
	ps.saveMu.Lock()
	defer ps.saveMu.Unlock()
	if ps.held {
		ps.stale = true
		return
	}
	ps.flush()
}

// release ends the hold: it writes the entry if a decision was made while
// held, or if force (a cold design is not on disk yet), and lets every
// later decision write as it is made.
func (ps *planStore) release(force bool) {
	if ps.write == nil {
		return
	}
	ps.saveMu.Lock()
	defer ps.saveMu.Unlock()
	ps.held = false
	if force || ps.stale {
		ps.flush()
	}
}

// flush writes the entry with every decision made so far; saveMu is held.
func (ps *planStore) flush() {
	ps.stale = false
	ps.mu.Lock()
	var recs []planRecord
	for _, fl := range ps.flights {
		if fl.made {
			recs = append(recs, fl.rec)
		}
	}
	ps.mu.Unlock()
	ps.write(recs) // best effort: saveDesign sorts the records
}
