package noc

import (
	"fmt"

	"wivfi/internal/energy"
	"wivfi/internal/obs"
)

// Telemetry totals across every DES invocation in the process (probe
// runs, saturation sweeps, instrumented replays). Allocation-free atomic
// adds; they never touch simulator output.
// Metric names registered below. Declared constants (enforced by
// wivfi-lint countersafe) so every lookup site shares one authoritative
// spelling.
const (
	MetricDESRuns             = "noc.des.runs"
	MetricDESPacketsDelivered = "noc.des.packets_delivered"
	MetricDESCycles           = "noc.des.cycles"
	MetricDESFlitHops         = "noc.des.flit_hops"
	MetricDESStalledPackets   = "noc.des.stalled_packets"
)

var (
	desRuns     = obs.NewCounter(MetricDESRuns)
	desPackets  = obs.NewCounter(MetricDESPacketsDelivered)
	desCycles   = obs.NewCounter(MetricDESCycles)
	desFlitHops = obs.NewCounter(MetricDESFlitHops)
	// desStalled counts packets still in flight when a run hit MaxCycles.
	// Nonzero means some DESResult in this process was truncated — a
	// signal that would otherwise be visible only in that result's
	// Stalled field.
	desStalled = obs.NewCounter(MetricDESStalledPackets)
)

// Packet is one network packet for the discrete simulator.
type Packet struct {
	ID     int
	Src    int
	Dst    int
	Flits  int
	Inject int64 // earliest injection cycle
}

// DESConfig configures the cycle-accurate wormhole simulator.
type DESConfig struct {
	// BufDepthFlits is the input-buffer depth of ordinary switch ports;
	// the paper uses two flits.
	BufDepthFlits int
	// WIBufDepthFlits is the input-buffer depth of ports fed by wireless
	// links; the paper increases these to eight flits "to avoid excessive
	// latency penalties while waiting for the token".
	WIBufDepthFlits int
	// MaxCycles aborts the run if packets remain undelivered (a safety
	// net, not an expected outcome with deadlock-free routing).
	MaxCycles int64
}

// DefaultDESConfig returns the paper's buffer configuration.
func DefaultDESConfig() DESConfig {
	return DESConfig{BufDepthFlits: 2, WIBufDepthFlits: 8, MaxCycles: 2_000_000}
}

// DESResult reports the outcome of one simulation.
type DESResult struct {
	Delivered int
	// AvgLatencyCycles is the mean latency of *delivered* packets only.
	// Packets stalled at MaxCycles (see Stalled) never eject, so they are
	// excluded — on a truncated run this average understates the true
	// latency the stalled packets would have seen.
	AvgLatencyCycles float64
	MaxLatencyCycles int64
	Cycles           int64
	EnergyPJ         float64
	WirelessFlitHops int64
	TotalFlitHops    int64
	// Stalled is the number of packets still in flight when MaxCycles was
	// reached; zero on a healthy run.
	Stalled int
}

// RunDES simulates the packets on the routed topology and returns aggregate
// metrics. Packets are injected at their Inject cycles from per-source FIFO
// queues; routing must be deadlock-free for the topology (XY on the mesh,
// UpDown on irregular fabrics) or the run may hit MaxCycles with stalled
// packets.
func RunDES(rt *RouteTable, packets []Packet, nm energy.NetworkModel, cfg DESConfig) (DESResult, error) {
	return runDESHooked(rt, packets, nm, cfg, desHooks{})
}

// desHooks are the simulator core's optional observation points. Both fire
// on simulated-time events with simulated-time arguments, so anything
// built on them is deterministic.
type desHooks struct {
	// onDeliver fires once per delivered packet with its latency in cycles.
	onDeliver func(id int, latency int64)
	// onForward fires once per flit forwarded over the link Adj[u][ai] at
	// the given cycle (injection hops included).
	onForward func(u, ai int, cycle int64)
}

// runDESHooked is the simulator core: validate the inputs, borrow a warmed
// engine, and run the event-calendar simulation. The engine preserves the
// cycle-driven reference semantics exactly (arbitration order, token
// rotation, pipeline delays, hook firing order, float accumulation order),
// which the differential property test enforces against the reference
// implementation in des_reference_test.go.
func runDESHooked(rt *RouteTable, packets []Packet, nm energy.NetworkModel, cfg DESConfig, hooks desHooks) (DESResult, error) {
	n := rt.topo.NumSwitches()
	if cfg.BufDepthFlits <= 0 || cfg.WIBufDepthFlits <= 0 || cfg.MaxCycles <= 0 {
		return DESResult{}, fmt.Errorf("noc: bad DES config %+v", cfg)
	}
	for _, pk := range packets {
		if pk.Src < 0 || pk.Src >= n || pk.Dst < 0 || pk.Dst >= n {
			return DESResult{}, fmt.Errorf("noc: packet %d endpoints out of range", pk.ID)
		}
		if pk.Flits <= 0 {
			return DESResult{}, fmt.Errorf("noc: packet %d has %d flits", pk.ID, pk.Flits)
		}
	}
	e := acquireEngine()
	defer releaseEngine(e)
	if err := e.bind(rt, nm, cfg); err != nil {
		return DESResult{}, err
	}
	e.loadPackets(packets)
	res, remaining := e.run(cfg, hooks)

	desRuns.Add(1)
	desPackets.Add(int64(res.Delivered))
	desCycles.Add(res.Cycles)
	desFlitHops.Add(res.TotalFlitHops)
	if remaining > 0 {
		desStalled.Add(int64(remaining))
		obs.Logf("noc: DES hit MaxCycles=%d with %d of %d packets stalled (deadlock or overload); AvgLatencyCycles covers delivered packets only", cfg.MaxCycles, remaining, len(packets))
		return res, fmt.Errorf("noc: %d packets undelivered after %d cycles (deadlock or overload)", remaining, cfg.MaxCycles)
	}
	return res, nil
}
