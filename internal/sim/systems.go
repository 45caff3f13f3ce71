package sim

import (
	"fmt"

	"wivfi/internal/energy"
	"wivfi/internal/noc"
	"wivfi/internal/place"
	"wivfi/internal/platform"
	"wivfi/internal/sched"
	"wivfi/internal/topo"
)

// Strategy selects the WiNoC placement methodology of Section 6.
type Strategy int

const (
	// MinHop minimizes the traffic-weighted hop count (simulated
	// annealing over WI positions).
	MinHop Strategy = iota
	// MaxWireless maximizes wireless-link utilization (WIs at cluster
	// centres, hot threads placed beside them). The paper finds this
	// consistently better (Fig. 6) and uses it for the headline results.
	MaxWireless
)

func (s Strategy) String() string {
	if s == MinHop {
		return "min-hop"
	}
	return "max-wireless"
}

// BuildConfig carries the shared platform parameters for system builders.
type BuildConfig struct {
	Chip               platform.Chip
	CoreModel          energy.CoreModel
	NetModel           energy.NetworkModel
	Analytic           noc.AnalyticConfig
	LinkCosts          noc.LinkCosts
	SmallWorld         topo.SmallWorldConfig
	Place              place.Options
	NetClockGHz        float64
	MemRoundTripFactor float64
}

// DefaultBuildConfig returns the paper's 64-core platform with all default
// models.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{
		Chip:               platform.DefaultChip(),
		CoreModel:          energy.DefaultCoreModel(),
		NetModel:           energy.DefaultNetworkModel(),
		Analytic:           noc.DefaultAnalyticConfig(),
		LinkCosts:          noc.DefaultLinkCosts(),
		SmallWorld:         topo.DefaultSmallWorldConfig(),
		Place:              place.DefaultOptions(),
		NetClockGHz:        2.5,
		MemRoundTripFactor: 3,
	}
}

// newSystem assembles a system from its per-builder parts and the shared
// models of cfg.
func newSystem(cfg BuildConfig, name string, vfi platform.VFIConfig, mapping place.Mapping,
	routes *noc.RouteTable, policy sched.Policy) *System {
	return &System{
		Name:               name,
		Chip:               cfg.Chip,
		VFI:                vfi,
		Mapping:            mapping,
		Routes:             routes,
		NetModel:           cfg.NetModel,
		CoreModel:          cfg.CoreModel,
		Analytic:           cfg.Analytic,
		NetClockGHz:        cfg.NetClockGHz,
		Policy:             policy,
		MemRoundTripFactor: cfg.MemRoundTripFactor,
	}
}

// MeshRoutes builds the XY route table of the chip's conventional mesh,
// the one every mesh system routes on. Tables are read-only, so systems of
// one chip may share it.
func MeshRoutes(cfg BuildConfig) (*noc.RouteTable, error) {
	return noc.BuildRoutes(topo.Mesh(cfg.Chip), cfg.LinkCosts, noc.XY)
}

// nvfiVFI is the non-VFI baseline's islands: every core at the DVFS
// maximum.
func nvfiVFI(cfg BuildConfig) platform.VFIConfig {
	return platform.Uniform(cfg.Chip.NumCores(), platform.MaxPoint(platform.DefaultDVFSTable()))
}

// NVFIMesh builds the baseline: every core at the DVFS maximum, threads
// mapped identically onto the mesh, default Phoenix stealing.
func NVFIMesh(cfg BuildConfig) (*System, error) {
	routes, err := MeshRoutes(cfg)
	if err != nil {
		return nil, err
	}
	return newSystem(cfg, "nvfi-mesh", nvfiVFI(cfg), place.NewIdentityMapping(cfg.Chip.NumCores()),
		routes, sched.DefaultStealing), nil
}

// NVFIMeshMapped builds the reporting baseline: the same non-VFI mesh but
// with a traffic-aware thread mapping (contiguous 16-thread groups mapped
// min-distance into the quadrants), so that VFI-vs-baseline comparisons
// measure the VFI and interconnect effects rather than a naive identity
// placement. The profile-gathering pass uses NVFIMesh; this uses its
// measured traffic.
func NVFIMeshMapped(cfg BuildConfig, traffic [][]float64) (*System, error) {
	assign, err := BaselineAssign(cfg)
	if err != nil {
		return nil, err
	}
	mapping, err := MeshMapping(cfg, assign, traffic)
	if err != nil {
		return nil, err
	}
	routes, err := MeshRoutes(cfg)
	if err != nil {
		return nil, err
	}
	return NVFIMeshPlaced(cfg, mapping, routes), nil
}

// BaselineAssign is NVFIMeshMapped's thread grouping: four contiguous
// groups of threads, group j mapped into quadrant j.
func BaselineAssign(cfg BuildConfig) ([]int, error) {
	n := cfg.Chip.NumCores()
	if n%4 != 0 {
		return nil, fmt.Errorf("sim: %d cores not divisible into the baseline's 4 contiguous thread groups", n)
	}
	assign := make([]int, n)
	for th := range assign {
		assign[th] = th / (n / 4)
	}
	return assign, nil
}

// MeshMapping is the min-distance thread mapping of a mesh system whose
// threads are grouped by assign: the design-time decision NVFIMeshMapped
// and VFIMesh make.
func MeshMapping(cfg BuildConfig, assign []int, traffic [][]float64) (place.Mapping, error) {
	return place.MapThreadsMinDistance(cfg.Chip, assign, traffic, cfg.Place.Seed, cfg.Place.MappingSweeps)
}

// NVFIMeshPlaced builds NVFIMeshMapped's system from its mapping (a
// MeshMapping of BaselineAssign) and the chip's XY routes (MeshRoutes):
// nothing is planned.
func NVFIMeshPlaced(cfg BuildConfig, mapping place.Mapping, routes *noc.RouteTable) *System {
	return newSystem(cfg, "nvfi-mesh", nvfiVFI(cfg), mapping, routes, sched.DefaultStealing)
}

// VFIMesh builds a VFI system on the conventional mesh: threads of island j
// are mapped into quadrant j (min-distance mapping) and the modified
// stealing policy applies.
func VFIMesh(cfg BuildConfig, vfi platform.VFIConfig, traffic [][]float64) (*System, error) {
	if err := vfi.Validate(); err != nil {
		return nil, fmt.Errorf("sim: VFI mesh config: %w", err)
	}
	mapping, err := MeshMapping(cfg, vfi.Assign, traffic)
	if err != nil {
		return nil, err
	}
	routes, err := MeshRoutes(cfg)
	if err != nil {
		return nil, err
	}
	return VFIMeshPlaced(cfg, vfi, mapping, routes)
}

// VFIMeshPlaced builds VFIMesh's system from its mapping (the MeshMapping
// of vfi.Assign) and the chip's XY routes (MeshRoutes): nothing is
// planned.
func VFIMeshPlaced(cfg BuildConfig, vfi platform.VFIConfig, mapping place.Mapping, routes *noc.RouteTable) (*System, error) {
	if err := vfi.Validate(); err != nil {
		return nil, fmt.Errorf("sim: VFI mesh config: %w", err)
	}
	return newSystem(cfg, "vfi-mesh", vfi, mapping, routes, sched.CapVFI), nil
}

// VFIWiNoC builds the proposed system: small-world wireline fabric with
// traffic-apportioned inter-cluster links, 12 wireless interfaces, thread
// mapping and WI placement per the chosen strategy, up*/down* routing and
// the modified stealing policy. It plans the placement (PlanWiNoC) and
// builds the system from it (VFIWiNoCPlaced).
func VFIWiNoC(cfg BuildConfig, vfi platform.VFIConfig, traffic [][]float64, strategy Strategy) (*System, error) {
	var mesh place.Mapping
	if strategy == MinHop {
		var err error
		if mesh, err = MeshMapping(cfg, vfi.Assign, traffic); err != nil {
			return nil, err
		}
	}
	p, err := PlanWiNoC(cfg, vfi, traffic, strategy, mesh)
	if err != nil {
		return nil, err
	}
	return VFIWiNoCPlaced(cfg, vfi, traffic, strategy, p)
}

// PlanWiNoC runs the strategy's design-time planning — thread mapping and
// WI placement — and returns the decision alone. Min-hop planning starts
// from mesh, the MeshMapping of vfi's islands (VFIMesh's); max-wireless
// maps the threads around its WIs and ignores mesh.
func PlanWiNoC(cfg BuildConfig, vfi platform.VFIConfig, traffic [][]float64, strategy Strategy, mesh place.Mapping) (place.Placement, error) {
	if err := vfi.Validate(); err != nil {
		return place.Placement{}, fmt.Errorf("sim: VFI WiNoC config: %w", err)
	}
	switch strategy {
	case MinHop:
		return place.PlanMinHopFrom(cfg.Chip, vfi.Assign, traffic, mesh, winocOptions(cfg))
	case MaxWireless:
		return place.PlanMaxWireless(cfg.Chip, vfi.Assign, traffic, winocOptions(cfg))
	}
	return place.Placement{}, fmt.Errorf("sim: unknown strategy %d", strategy)
}

// VFIWiNoCPlaced builds the VFI WiNoC for a given placement (one planned
// by PlanWiNoC under the same inputs, or a stored copy of it): place.Realize
// checks the placement against the islands, rebuilds the fabric and
// routes, and no planning runs.
func VFIWiNoCPlaced(cfg BuildConfig, vfi platform.VFIConfig, traffic [][]float64, strategy Strategy, p place.Placement) (*System, error) {
	if err := vfi.Validate(); err != nil {
		return nil, fmt.Errorf("sim: VFI WiNoC config: %w", err)
	}
	if strategy != MinHop && strategy != MaxWireless {
		return nil, fmt.Errorf("sim: unknown strategy %d", strategy)
	}
	res, err := place.Realize(cfg.Chip, vfi.Assign, traffic, p, winocOptions(cfg))
	if err != nil {
		return nil, err
	}
	s := newSystem(cfg, "vfi-winoc-"+strategy.String(), vfi, res.Mapping, res.Routes, sched.CapVFI)
	s.AdaptiveRouting = true
	return s, nil
}

// winocOptions is cfg's placement options with the WiNoC's fabric, link
// costs and up*/down* routing.
func winocOptions(cfg BuildConfig) place.Options {
	opts := cfg.Place
	opts.SmallWorld = cfg.SmallWorld
	opts.Costs = cfg.LinkCosts
	opts.Routing = noc.UpDown
	return opts
}
