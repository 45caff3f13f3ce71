package noc

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"wivfi/internal/energy"
	"wivfi/internal/topo"
)

// This file is the event-calendar wormhole engine behind RunDES. It keeps
// the exact semantics of the cycle-driven reference engine (see
// des_reference_test.go) — same three-phase cycle structure, round-robin
// arbitration order, token rotation, pipeline delays, hook firing order,
// and float accumulation order — while removing its three hot-path costs:
//
//   - every simulated cycle scanned all switches and all adjacencies; the
//     engine iterates active-node bitmasks instead, so per-cycle work is
//     proportional to in-flight traffic, and a calendar of arrival /
//     injection wakes skips provably idle cycles outright (token state is
//     fast-forwarded analytically across the skipped span);
//   - per-forward route lookup rescanned the packet's path (O(path
//     length)); the engine tracks each packet's head hop index, making the
//     lookup O(1);
//   - buffers resliced a heap-allocated queue per pop and three channel
//     scratch slices were allocated per cycle; the engine keeps all flit,
//     link, and buffer state in struct-of-arrays form over one preallocated
//     arena of index-only slots, so the steady-state loop performs no
//     allocation at all.
//
// Engines are reusable: runDESHooked borrows one from a bounded free list,
// and a borrowed engine that last ran the same route table and buffer
// config only clears its mutable state, so a warmed RunDES is
// allocation-free end to end (enforced by the zero-alloc regression test).

// flitSlot is one buffered flit in the arena: index-only, so a drained
// buffer retains nothing (the structural fix for the fifo.pop retention
// bug).
type flitSlot struct {
	pkt     int32
	idx     int32 // flit index within the packet
	arrived int64 // cycle the flit entered this buffer
}

// injEvent schedules a source whose front packet becomes injectable at cyc.
type injEvent struct {
	cyc int64
	src int32
}

// desEngine holds all simulator state in struct-of-arrays form. Directed
// links are the route table's edge ids, base[u]..base[u+1]-1 at switch u,
// so a packet's route is read as link ids directly; the input buffer fed
// by link li lives at flat id linkRev[li].
type desEngine struct {
	// cache keys: topology-derived arrays are rebuilt only when these
	// change between runs.
	rt         *RouteTable
	nm         energy.NetworkModel
	nmValid    bool
	bufDepth   int
	wiBufDepth int

	n     int // switches
	words int // active-bitmask words

	// --- topology-derived (immutable during a run) ---
	base         []int32 // len n+1: flat link id range per switch
	linkTo       []int32
	linkRev      []int32 // flat id of the buffer receiving this link's flits
	linkDelay    []int64
	linkWireless []bool
	linkChannel  []int32
	linkEnergyPJ []float64 // per-flit hop energy, precomputed from nm
	bufNode      []int32   // owning switch of each buffer (indexed like links)
	bufStart     []int32   // arena offset of each buffer's ring segment
	bufCap       []int32
	rings        [][]int32 // per channel: sorted WI switch ids
	maxDelay     int64
	wakeW        int64 // arrival-wake ring size, > maxDelay

	// --- per-run mutable state ---
	arena    []flitSlot
	bufHead  []int32
	bufLen   []int32
	bindPkt  []int32 // bound packet per output link, -1 when free
	bindSrcQ []int32 // source queue: adjacency index, or deg(u) for injection
	bindSent []int32
	rrPtr    []int32
	// Event-maintained head eligibility: updated only when a buffer's
	// head changes (push into an empty buffer, or pop), so the per-cycle
	// phases compare timestamps instead of rescanning arena state.
	headEligAt  []int64  // cycle the head becomes arbitrable; farFuture if never
	headDesired []int32  // output link id the head routes to, valid when arbitrable
	headEjectAt []int64  // cycle the head becomes ejectable here; farFuture if never
	nodeEligAt  []int64  // lazy lower bound over the node's headEligAt
	nodeEjectAt []int64  // lazy lower bound over the node's headEjectAt
	injEligAt   []int64  // cycle the injection front becomes arbitrable (exact)
	injDesired  []int32  // output link id of the injection front
	nodeBufs    []int32  // non-empty input buffers per switch
	nodeBinds   []int32  // live output bindings per switch
	bindMask    []uint64 // bound outputs per switch (bit 63 shared beyond 63)
	injReady    []bool   // front of the injection queue is arbitrable
	injPtr      []int32
	active      []uint64
	tokenIdx    []int32
	arrWake     []int64 // ring calendar of flit-maturity wake cycles
	injHeap     []injEvent
	chUsed      [topo.NumChannels]bool
	chTail      [topo.NumChannels]bool
	chHeld      [topo.NumChannels]bool

	// --- packets, struct-of-arrays ---
	pktID       []int
	pktSrc      []int32
	pktDst      []int32
	pktFlits    []int32
	pktInject   []int64
	pktInjected []int32
	pktEjected  []int32
	pktHeadHop  []int32   // hops completed by the head flit: O(1) route lookup
	pktRoute    [][]int32 // link ids, shared with the route table
	bySrc       [][]int32
	localID     []int
	localLat    []int64
	numRouted   int
	sortBuf     []int32
}

// farFuture is the "never" timestamp for the event-maintained
// eligibility calendar: far beyond any reachable cycle, yet safe to add
// small offsets to without overflowing int64.
const farFuture = int64(1) << 62

// desEngines is the bounded free list runDESHooked borrows engines from.
// A plain mutex-guarded slice (not a sync.Pool) so warmed engines survive
// GC cycles and the zero-alloc regression test stays deterministic.
var desEngines struct {
	mu   sync.Mutex
	free []*desEngine
}

const maxFreeEngines = 8

func acquireEngine() *desEngine {
	desEngines.mu.Lock()
	if n := len(desEngines.free); n > 0 {
		e := desEngines.free[n-1]
		desEngines.free[n-1] = nil
		desEngines.free = desEngines.free[:n-1]
		desEngines.mu.Unlock()
		return e
	}
	desEngines.mu.Unlock()
	return &desEngine{}
}

func releaseEngine(e *desEngine) {
	desEngines.mu.Lock()
	if len(desEngines.free) < maxFreeEngines {
		desEngines.free = append(desEngines.free, e)
	}
	desEngines.mu.Unlock()
}

// bind prepares the engine for a run on rt with the given energy model and
// buffer config, rebuilding topology-derived arrays only when the cache
// key changed since the engine's previous run.
func (e *desEngine) bind(rt *RouteTable, nm energy.NetworkModel, cfg DESConfig) error {
	if e.rt != rt || e.bufDepth != cfg.BufDepthFlits || e.wiBufDepth != cfg.WIBufDepthFlits {
		if err := e.rebuild(rt, cfg); err != nil {
			return err
		}
		e.nmValid = false
	}
	if !e.nmValid || e.nm != nm {
		rt.g.hopEnergyPJ(nm, e.linkEnergyPJ)
		e.nm = nm
		e.nmValid = true
	}
	e.resetRunState()
	return nil
}

// rebuild derives the flattened link/buffer layout from the route table's
// graph, whose entries are the engine's link ids.
func (e *desEngine) rebuild(rt *RouteTable, cfg DESConfig) error {
	t, g := rt.topo, rt.g
	n := g.n
	numLinks := len(g.to)
	e.rt = nil // invalidated until the rebuild succeeds
	e.n = n
	e.words = (n + 63) / 64

	e.base = growI32(e.base, n+1)
	for u, off := range g.off {
		e.base[u] = int32(off)
	}
	e.linkTo = growI32(e.linkTo, numLinks)
	e.linkRev = growI32(e.linkRev, numLinks)
	e.linkDelay = growI64(e.linkDelay, numLinks)
	e.linkWireless = growBool(e.linkWireless, numLinks)
	e.linkChannel = growI32(e.linkChannel, numLinks)
	e.linkEnergyPJ = growF64(e.linkEnergyPJ, numLinks)
	e.bufNode = growI32(e.bufNode, numLinks)
	e.bufStart = growI32(e.bufStart, numLinks)
	e.bufCap = growI32(e.bufCap, numLinks)

	arenaSize := int32(0)
	for u := 0; u < n; u++ {
		for li := g.off[u]; li < g.off[u+1]; li++ {
			v, ch := g.to[li], g.channel[li]
			e.linkTo[li] = int32(v)
			e.linkWireless[li] = ch >= 0
			e.linkChannel[li] = int32(ch)
			e.linkDelay[li] = max(int64(math.Round(g.base[li])), 1)
			// reverse direction: the input buffer at v fed by this link
			rev := int32(-1)
			for r := g.off[v]; r < g.off[v+1]; r++ {
				if g.to[r] == u && g.channel[r] == ch {
					rev = int32(r)
					break
				}
			}
			if rev < 0 {
				return fmt.Errorf("noc: link %d->%d has no reverse", u, v)
			}
			e.linkRev[li] = rev
			// this link id doubles as the buffer id for flits arriving
			// over it (symmetric storage, as in the reference).
			e.bufNode[li] = int32(u)
			depth := cfg.BufDepthFlits
			if ch >= 0 {
				depth = cfg.WIBufDepthFlits
			}
			e.bufStart[li] = arenaSize
			e.bufCap[li] = int32(depth)
			arenaSize += int32(depth)
		}
	}
	if cap(e.arena) < int(arenaSize) {
		e.arena = make([]flitSlot, arenaSize)
	} else {
		e.arena = e.arena[:arenaSize]
	}

	// wireless token rings, sorted ascending as in the reference engine.
	// A member has one wireless link per other ring member on its channel,
	// each an independently bindable output.
	if e.rings == nil {
		e.rings = make([][]int32, topo.NumChannels)
	}
	for ch := range e.rings {
		e.rings[ch] = e.rings[ch][:0]
	}
	for _, wi := range t.WIs {
		ch := t.ChannelOf[wi]
		e.rings[ch] = append(e.rings[ch], int32(wi))
	}
	for ch := range e.rings {
		ring := e.rings[ch]
		sort.Slice(ring, func(i, j int) bool { return ring[i] < ring[j] })
	}

	e.maxDelay = 1
	for _, d := range e.linkDelay {
		if d > e.maxDelay {
			e.maxDelay = d
		}
	}
	e.wakeW = e.maxDelay + 1
	e.arrWake = growI64(e.arrWake, int(e.wakeW))

	// per-run arrays sized by the new layout
	e.bufHead = growI32(e.bufHead, numLinks)
	e.bufLen = growI32(e.bufLen, numLinks)
	e.bindPkt = growI32(e.bindPkt, numLinks)
	e.bindSrcQ = growI32(e.bindSrcQ, numLinks)
	e.bindSent = growI32(e.bindSent, numLinks)
	e.rrPtr = growI32(e.rrPtr, numLinks)
	e.headEligAt = growI64(e.headEligAt, numLinks)
	e.headDesired = growI32(e.headDesired, numLinks)
	e.headEjectAt = growI64(e.headEjectAt, numLinks)
	e.nodeEligAt = growI64(e.nodeEligAt, n)
	e.nodeEjectAt = growI64(e.nodeEjectAt, n)
	e.injEligAt = growI64(e.injEligAt, n)
	e.injDesired = growI32(e.injDesired, n)
	e.nodeBufs = growI32(e.nodeBufs, n)
	e.nodeBinds = growI32(e.nodeBinds, n)
	if cap(e.bindMask) < n {
		e.bindMask = make([]uint64, n)
	} else {
		e.bindMask = e.bindMask[:n]
	}
	e.injReady = growBool(e.injReady, n)
	e.injPtr = growI32(e.injPtr, n)
	e.tokenIdx = growI32(e.tokenIdx, topo.NumChannels)
	if cap(e.active) < e.words {
		e.active = make([]uint64, e.words)
	} else {
		e.active = e.active[:e.words]
	}
	if cap(e.bySrc) < n {
		e.bySrc = make([][]int32, n)
	} else {
		e.bySrc = e.bySrc[:n]
	}

	e.rt = rt
	e.bufDepth = cfg.BufDepthFlits
	e.wiBufDepth = cfg.WIBufDepthFlits
	return nil
}

// resetRunState clears all mutable per-run state; allocation-free.
func (e *desEngine) resetRunState() {
	for i := range e.bufHead {
		e.bufHead[i] = 0
		e.bufLen[i] = 0
		e.bindPkt[i] = -1
		e.bindSrcQ[i] = 0
		e.bindSent[i] = 0
		e.rrPtr[i] = 0
		e.headEligAt[i] = farFuture
		e.headDesired[i] = 0
		e.headEjectAt[i] = farFuture
	}
	for i := 0; i < e.n; i++ {
		e.nodeBufs[i] = 0
		e.nodeBinds[i] = 0
		e.bindMask[i] = 0
		e.injReady[i] = false
		e.injPtr[i] = 0
		e.nodeEligAt[i] = farFuture
		e.nodeEjectAt[i] = farFuture
		e.injEligAt[i] = farFuture
		e.injDesired[i] = 0
	}
	for i := range e.active {
		e.active[i] = 0
	}
	for i := range e.tokenIdx {
		e.tokenIdx[i] = 0
	}
	for i := range e.arrWake {
		e.arrWake[i] = -1
	}
	e.injHeap = e.injHeap[:0]
	e.chUsed = [topo.NumChannels]bool{}
	e.chTail = [topo.NumChannels]bool{}
	e.chHeld = [topo.NumChannels]bool{}
}

// loadPackets splits the run's packets into local deliveries and routed
// per-source injection queues, stably sorted by (Inject, ID) exactly as
// the reference engine orders them.
func (e *desEngine) loadPackets(packets []Packet) {
	e.localID = e.localID[:0]
	e.localLat = e.localLat[:0]
	e.pktID = e.pktID[:0]
	e.pktSrc = e.pktSrc[:0]
	e.pktDst = e.pktDst[:0]
	e.pktFlits = e.pktFlits[:0]
	e.pktInject = e.pktInject[:0]
	e.pktInjected = e.pktInjected[:0]
	e.pktEjected = e.pktEjected[:0]
	e.pktHeadHop = e.pktHeadHop[:0]
	e.pktRoute = e.pktRoute[:0]
	for u := range e.bySrc {
		e.bySrc[u] = e.bySrc[u][:0]
	}
	for _, pk := range packets {
		if pk.Src == pk.Dst {
			// Local delivery: consumes no network resources.
			e.localID = append(e.localID, pk.ID)
			e.localLat = append(e.localLat, int64(pk.Flits-1))
			continue
		}
		p := int32(len(e.pktID))
		e.pktID = append(e.pktID, pk.ID)
		e.pktSrc = append(e.pktSrc, int32(pk.Src))
		e.pktDst = append(e.pktDst, int32(pk.Dst))
		e.pktFlits = append(e.pktFlits, int32(pk.Flits))
		e.pktInject = append(e.pktInject, pk.Inject)
		e.pktInjected = append(e.pktInjected, 0)
		e.pktEjected = append(e.pktEjected, 0)
		e.pktHeadHop = append(e.pktHeadHop, 0)
		e.pktRoute = append(e.pktRoute, e.rt.route(pk.Src, pk.Dst))
		e.bySrc[pk.Src] = append(e.bySrc[pk.Src], p)
	}
	e.numRouted = len(e.pktID)
	for u := range e.bySrc {
		if len(e.bySrc[u]) > 1 {
			e.sortByInject(e.bySrc[u])
		}
	}
	// initial injection readiness (first simulated cycle is 0)
	for u := 0; u < e.n; u++ {
		if len(e.bySrc[u]) == 0 {
			continue
		}
		p := e.bySrc[u][0]
		e.injEligAt[u] = e.pktInject[p]
		e.injDesired[u] = e.pktRoute[p][0]
		if e.pktInject[p] <= 0 {
			e.injReady[u] = true
			e.refreshNodeBit(u)
		} else {
			e.heapPush(e.pktInject[p], int32(u))
		}
	}
}

// lessInject orders packet indices by (Inject, ID), the reference
// engine's per-source queue order.
func (e *desEngine) lessInject(x, y int32) bool {
	if e.pktInject[x] != e.pktInject[y] {
		return e.pktInject[x] < e.pktInject[y]
	}
	return e.pktID[x] < e.pktID[y]
}

// sortByInject stably sorts a source queue without allocating in steady
// state: insertion sort for short queues, bottom-up merge (with a reused
// scratch buffer) beyond that. Any stable sort yields the identical
// permutation sort.SliceStable produced in the reference engine.
func (e *desEngine) sortByInject(a []int32) {
	const runLen = 32
	for lo := 0; lo < len(a); lo += runLen {
		hi := lo + runLen
		if hi > len(a) {
			hi = len(a)
		}
		e.insertionSort(a[lo:hi])
	}
	if len(a) <= runLen {
		return
	}
	e.sortBuf = growI32(e.sortBuf, len(a))
	buf := e.sortBuf
	for width := runLen; width < len(a); width *= 2 {
		for lo := 0; lo+width < len(a); lo += 2 * width {
			hi := lo + 2*width
			if hi > len(a) {
				hi = len(a)
			}
			e.mergeRuns(a[lo:hi], width, buf)
		}
	}
}

func (e *desEngine) insertionSort(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && e.lessInject(v, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// mergeRuns merges a[:mid] and a[mid:], both sorted, stably (left wins
// ties) using buf as scratch.
func (e *desEngine) mergeRuns(a []int32, mid int, buf []int32) {
	left := buf[:mid]
	copy(left, a[:mid])
	i, j, k := 0, mid, 0
	for i < mid && j < len(a) {
		if e.lessInject(a[j], left[i]) {
			a[k] = a[j]
			j++
		} else {
			a[k] = left[i]
			i++
		}
		k++
	}
	for i < mid {
		a[k] = left[i]
		i++
		k++
	}
}

// run executes the simulation and returns the aggregate result plus the
// count of undelivered packets. All bookkeeping mirrors the reference
// engine event for event, so hook sequences and float accumulation order
// are identical.
func (e *desEngine) run(cfg DESConfig, hooks desHooks) (DESResult, int) {
	var res DESResult
	remaining := e.numRouted
	for i, id := range e.localID {
		res.Delivered++
		lat := e.localLat[i]
		res.AvgLatencyCycles += float64(lat)
		if lat > res.MaxLatencyCycles {
			res.MaxLatencyCycles = lat
		}
		if hooks.onDeliver != nil {
			hooks.onDeliver(id, lat)
		}
	}

	var cycle int64
	for remaining > 0 && cycle < cfg.MaxCycles {
		// Wake sources whose front packet became injectable.
		for len(e.injHeap) > 0 && e.injHeap[0].cyc <= cycle {
			src := e.heapPop()
			e.refreshInjReady(int(src), cycle)
		}

		moved := false

		// Phase 1: ejection. Drain every input buffer's head flits destined
		// for this switch (flits must have arrived in an earlier cycle).
		for w := 0; w < e.words; w++ {
			mask := e.active[w]
			for mask != 0 {
				tz := bits.TrailingZeros64(mask)
				mask &^= 1 << uint(tz)
				v := w*64 + tz
				if e.nodeEjectAt[v] > cycle {
					continue
				}
				minEject := farFuture
				for b := e.base[v]; b < e.base[v+1]; b++ {
					for e.headEjectAt[b] <= cycle {
						p := e.arena[e.bufStart[b]+e.bufHead[b]].pkt
						e.popBuf(b, v)
						moved = true
						res.EnergyPJ += e.nm.SwitchPJPerFlitPort // ejection port
						e.pktEjected[p]++
						if e.pktEjected[p] == e.pktFlits[p] {
							remaining--
							res.Delivered++
							lat := cycle - e.pktInject[p]
							res.AvgLatencyCycles += float64(lat)
							if lat > res.MaxLatencyCycles {
								res.MaxLatencyCycles = lat
							}
							if hooks.onDeliver != nil {
								hooks.onDeliver(e.pktID[p], lat)
							}
						}
					}
					if e.headEjectAt[b] < minEject {
						minEject = e.headEjectAt[b]
					}
				}
				e.nodeEjectAt[v] = minEject
			}
		}

		// Phase 2: transfers. One flit per output link per cycle; one flit
		// per wireless channel per cycle, transmitted by the token holder.
		for w := 0; w < e.words; w++ {
			mask := e.active[w]
			for mask != 0 {
				tz := bits.TrailingZeros64(mask)
				mask &^= 1 << uint(tz)
				u := w*64 + tz
				if e.nodeBinds[u] == 0 && e.nodeEligAt[u] > cycle && e.injEligAt[u] > cycle {
					// No live binding and provably no arbitrable candidate:
					// phase 2 cannot act at this node.
					continue
				}
				b0 := e.base[u]
				deg := int(e.base[u+1] - b0)
				// Gather arbitration candidates once per node per cycle:
				// every eligible head routes to exactly one output, so the
				// round-robin scan below only runs for outputs a candidate
				// wants. wantMask bits are only ever set (a stale bit just
				// costs one wasted scan); headEligAt/headDesired are kept
				// exact as pops expose new heads mid-phase.
				var wantMask uint64
				minElig := farFuture
				for q := 0; q < deg; q++ {
					fq := b0 + int32(q)
					at := e.headEligAt[fq]
					if at <= cycle {
						wantMask |= wantBit(int(e.headDesired[fq] - b0))
					}
					if at < minElig {
						minElig = at
					}
				}
				e.nodeEligAt[u] = minElig
				if e.injEligAt[u] <= cycle {
					wantMask |= wantBit(int(e.injDesired[u] - b0))
				}
				if wantMask == 0 && e.nodeBinds[u] == 0 {
					continue
				}
				// Visit only outputs that are bound or wanted, in ascending
				// order — identical to scanning every output, because an
				// unbound, unwanted output is a guaranteed no-op. Switches
				// with more than 64 outputs (bit 63 is shared) fall back to
				// the full scan.
				wide := deg > 64
				var outMask uint64
				if !wide {
					outMask = wantMask | e.bindMask[u]
				}
				for ai := 0; ai < deg; ai++ {
					if !wide {
						if outMask == 0 {
							break
						}
						ai = bits.TrailingZeros64(outMask)
						outMask &^= 1 << uint(ai)
					}
					li := b0 + int32(ai)
					wireless := e.linkWireless[li]
					var ch int32
					if wireless {
						ch = e.linkChannel[li]
						ring := e.rings[ch]
						if len(ring) == 0 {
							continue
						}
						holder := ring[e.tokenIdx[ch]]
						if int(holder) != u || e.chUsed[ch] {
							// A holder with an in-flight wormhole keeps the
							// token even when it cannot transmit this cycle.
							if int(holder) == u && e.bindPkt[li] >= 0 {
								e.chHeld[ch] = true
							}
							continue
						}
					}
					dstBuf := e.linkRev[li]
					if e.bindPkt[li] < 0 {
						// Arbitrate a new packet: round-robin over source
						// queues whose head is a routable head flit.
						if wantMask&wantBit(ai) == 0 {
							continue
						}
						p, srcQ, ok := e.pickCandidate(u, ai, deg, cycle)
						if !ok {
							continue
						}
						e.bindPkt[li] = p
						e.bindSrcQ[li] = srcQ
						e.bindSent[li] = 0
						e.nodeBinds[u]++
						e.bindMask[u] |= wantBit(ai)
						moved = true
					}
					if e.bufLen[dstBuf] >= e.bufCap[dstBuf] {
						if wireless {
							e.chHeld[ch] = true
						}
						continue
					}
					// Forward the next flit of the bound packet if available.
					p := e.bindPkt[li]
					flIdx, ok := e.takeFlit(u, li, deg, cycle)
					if !ok {
						if wireless {
							e.chHeld[ch] = true
						}
						continue
					}
					moved = true
					if flIdx == 0 {
						// Advance before the push: the downstream buffer's head
						// state reads the route index at the receiving switch.
						e.pktHeadHop[p]++
					}
					e.pushBuf(dstBuf, p, flIdx, cycle+e.linkDelay[li]-1)
					// A pop may have exposed a newly arbitrable head for an
					// output still to come this cycle (never one already
					// passed: the reference saw the pre-pop state there too).
					if srcQ := e.bindSrcQ[li]; int(srcQ) != deg {
						fq := b0 + srcQ
						if e.headEligAt[fq] <= cycle {
							d := int(e.headDesired[fq] - b0)
							wantMask |= wantBit(d)
							if d > ai {
								outMask |= wantBit(d)
							}
						}
					}
					res.TotalFlitHops++
					if hooks.onForward != nil {
						hooks.onForward(u, ai, cycle)
					}
					res.EnergyPJ += e.linkEnergyPJ[li]
					if wireless {
						res.WirelessFlitHops++
						e.chUsed[ch] = true
						if flIdx == e.pktFlits[p]-1 {
							e.chTail[ch] = true
						}
					}
					e.bindSent[li]++
					if e.bindSent[li] == e.pktFlits[p] {
						e.bindPkt[li] = -1
						e.nodeBinds[u]--
						e.clearBindBit(u, ai, deg)
						if int(e.bindSrcQ[li]) == deg {
							// Source finished injecting this packet: advance
							// the injection queue to the next packet, which
							// may itself be arbitrable for a later output.
							e.advanceInjQueue(u, cycle)
							if e.injEligAt[u] <= cycle {
								d := int(e.injDesired[u] - b0)
								wantMask |= wantBit(d)
								if d > ai {
									outMask |= wantBit(d)
								}
							}
						}
						e.refreshNodeBit(u)
					}
				}
			}
		}

		// Phase 3: token rotation. A holder that finished a packet or had
		// nothing to send passes the token; a holder mid-packet keeps it so
		// channel wormholes are not interleaved.
		for ch := 0; ch < topo.NumChannels; ch++ {
			if len(e.rings[ch]) == 0 {
				continue
			}
			if e.chTail[ch] || (!e.chUsed[ch] && !e.chHeld[ch]) {
				e.tokenIdx[ch] = (e.tokenIdx[ch] + 1) % int32(len(e.rings[ch]))
			}
			e.chUsed[ch] = false
			e.chTail[ch] = false
			e.chHeld[ch] = false
		}

		if remaining == 0 || moved {
			cycle++
			continue
		}
		// Quiescent cycle: jump the calendar to the next cycle anything can
		// change, fast-forwarding token rotation across the skipped span.
		next := e.nextWake(cycle, cfg.MaxCycles)
		e.fastForwardTokens(next - cycle - 1)
		cycle = next
	}

	res.Cycles = cycle
	res.Stalled = remaining
	if res.Delivered > 0 {
		res.AvgLatencyCycles /= float64(res.Delivered)
	}
	return res, remaining
}

// wantBit maps an output adjacency index to its bit in the per-node
// candidate mask. Outputs beyond 63 share the top bit, so on a
// pathologically high-degree switch the mask degrades to a conservative
// filter rather than losing candidates.
func wantBit(ai int) uint64 {
	if ai > 63 {
		ai = 63
	}
	return 1 << uint(ai)
}

// clearBindBit drops output ai from node u's bound-output mask. Bit 63
// is shared by all outputs beyond 63, so it only clears once no such
// output holds a binding.
func (e *desEngine) clearBindBit(u, ai, deg int) {
	if ai < 63 {
		e.bindMask[u] &^= 1 << uint(ai)
		return
	}
	for k := 63; k < deg; k++ {
		if e.bindPkt[e.base[u]+int32(k)] >= 0 {
			return
		}
	}
	e.bindMask[u] &^= 1 << 63
}

// pickCandidate runs the round-robin output arbitration for output ai at
// node u over the event-maintained candidate state, advancing the
// round-robin pointer on success. headEligAt/headDesired and injEligAt
// mirror the buffer heads and injection front exactly, so the winner is
// the same one a direct scan of the heads would pick.
func (e *desEngine) pickCandidate(u, ai, deg int, cycle int64) (int32, int32, bool) {
	numQ := deg + 1
	b0 := e.base[u]
	li := b0 + int32(ai)
	start := int(e.rrPtr[li])
	for k := 0; k < numQ; k++ {
		q := start + k
		if q >= numQ {
			q -= numQ
		}
		if q == deg {
			// Injection queue: the oldest not-fully-injected packet at u.
			if e.injEligAt[u] <= cycle && e.injDesired[u] == li {
				e.rrPtr[li] = int32((q + 1) % numQ)
				return e.bySrc[u][e.injPtr[u]], int32(deg), true
			}
			continue
		}
		fq := b0 + int32(q)
		if e.headEligAt[fq] <= cycle && e.headDesired[fq] == li {
			e.rrPtr[li] = int32((q + 1) % numQ)
			h := &e.arena[e.bufStart[fq]+e.bufHead[fq]]
			return h.pkt, int32(q), true
		}
	}
	return 0, 0, false
}

// arbitrate is a pure would-anything-win probe over the live buffer
// state: it scans source queues at node u round-robin for a head flit
// that routes to output ai, without touching the round-robin pointer.
// The idle-skip safety check uses it to dry-run future cycles; the hot
// path arbitrates via pickCandidate over the gathered candidates.
func (e *desEngine) arbitrate(u, ai, deg int, cycle int64) bool {
	numQ := deg + 1
	li := e.base[u] + int32(ai)
	start := int(e.rrPtr[li])
	for k := 0; k < numQ; k++ {
		q := (start + k) % numQ
		if q < deg {
			b := e.base[u] + int32(q)
			if e.bufLen[b] == 0 {
				continue
			}
			h := &e.arena[e.bufStart[b]+e.bufHead[b]]
			if h.arrived >= cycle || h.idx != 0 || int(e.pktDst[h.pkt]) == u {
				continue
			}
			if e.pktRoute[h.pkt][e.pktHeadHop[h.pkt]] == li {
				return true
			}
		} else {
			// Injection queue: the oldest not-fully-injected packet at u.
			ptr := int(e.injPtr[u])
			if ptr >= len(e.bySrc[u]) {
				continue
			}
			p := e.bySrc[u][ptr]
			if e.pktInject[p] > cycle || e.pktInjected[p] != 0 {
				continue
			}
			if e.pktRoute[p][0] == li {
				return true
			}
		}
	}
	return false
}

// takeFlit pops the next flit of the packet bound to output li if it is at
// the head of its source queue and eligible this cycle.
func (e *desEngine) takeFlit(u int, li int32, deg int, cycle int64) (int32, bool) {
	p := e.bindPkt[li]
	if int(e.bindSrcQ[li]) == deg {
		// Injection: synthesize the next flit.
		if e.pktInjected[p] >= e.pktFlits[p] || e.pktInject[p] > cycle {
			return 0, false
		}
		idx := e.pktInjected[p]
		e.pktInjected[p]++
		if idx == 0 {
			// The front is now mid-injection and no longer arbitrable.
			e.injEligAt[u] = farFuture
		}
		return idx, true
	}
	b := e.base[u] + e.bindSrcQ[li]
	if e.bufLen[b] == 0 {
		return 0, false
	}
	h := &e.arena[e.bufStart[b]+e.bufHead[b]]
	if h.pkt != p || h.arrived >= cycle {
		return 0, false
	}
	idx := h.idx
	e.popBuf(b, u)
	return idx, true
}

// popBuf removes the head flit of buffer b owned by node.
func (e *desEngine) popBuf(b int32, node int) {
	e.bufHead[b]++
	if e.bufHead[b] == e.bufCap[b] {
		e.bufHead[b] = 0
	}
	e.bufLen[b]--
	if e.bufLen[b] == 0 {
		e.headEligAt[b] = farFuture
		e.headEjectAt[b] = farFuture
		e.nodeBufs[node]--
		if e.nodeBufs[node] == 0 {
			e.refreshNodeBit(node)
		}
	} else {
		e.setHeadState(b, node)
	}
}

// pushBuf appends a flit to buffer b and schedules its maturity wake.
func (e *desEngine) pushBuf(b, pkt, idx int32, arrived int64) {
	pos := e.bufHead[b] + e.bufLen[b]
	if pos >= e.bufCap[b] {
		pos -= e.bufCap[b]
	}
	e.arena[e.bufStart[b]+pos] = flitSlot{pkt: pkt, idx: idx, arrived: arrived}
	e.bufLen[b]++
	if e.bufLen[b] == 1 {
		v := int(e.bufNode[b])
		e.nodeBufs[v]++
		if e.nodeBufs[v] == 1 {
			e.refreshNodeBit(v)
		}
		e.setHeadState(b, v)
	}
	w := arrived + 1
	e.arrWake[w%e.wakeW] = w
}

// setHeadState recomputes buffer b's head-eligibility timestamps after
// the head changed; v owns b. The lazy per-node bounds are only lowered
// here (a new head can be arbitrable or ejectable earlier than the
// bound); the phase scans raise them back when they go stale. A head
// flit's pktHeadHop is stable while it sits in b — it only advances when
// the flit is forwarded, which pops it — so headDesired stays valid
// until the next head change.
func (e *desEngine) setHeadState(b int32, v int) {
	h := &e.arena[e.bufStart[b]+e.bufHead[b]]
	if int(e.pktDst[h.pkt]) == v {
		e.headEligAt[b] = farFuture
		e.headEjectAt[b] = h.arrived + 1
		if h.arrived+1 < e.nodeEjectAt[v] {
			e.nodeEjectAt[v] = h.arrived + 1
		}
		return
	}
	e.headEjectAt[b] = farFuture
	if h.idx != 0 {
		e.headEligAt[b] = farFuture
		return
	}
	e.headEligAt[b] = h.arrived + 1
	e.headDesired[b] = e.pktRoute[h.pkt][e.pktHeadHop[h.pkt]]
	if h.arrived+1 < e.nodeEligAt[v] {
		e.nodeEligAt[v] = h.arrived + 1
	}
}

// refreshNodeBit recomputes node u's activity bit.
func (e *desEngine) refreshNodeBit(u int) {
	if e.nodeBufs[u] > 0 || e.nodeBinds[u] > 0 || e.injReady[u] {
		e.active[u>>6] |= 1 << (uint(u) & 63)
	} else {
		e.active[u>>6] &^= 1 << (uint(u) & 63)
	}
}

// advanceInjQueue skips fully injected packets at the front of u's
// injection queue and refreshes the new front's readiness.
func (e *desEngine) advanceInjQueue(u int, cycle int64) {
	for int(e.injPtr[u]) < len(e.bySrc[u]) {
		p := e.bySrc[u][e.injPtr[u]]
		if e.pktInjected[p] != e.pktFlits[p] {
			break
		}
		e.injPtr[u]++
	}
	if ptr := int(e.injPtr[u]); ptr < len(e.bySrc[u]) && e.pktInjected[e.bySrc[u][ptr]] == 0 {
		p := e.bySrc[u][ptr]
		e.injEligAt[u] = e.pktInject[p]
		e.injDesired[u] = e.pktRoute[p][0]
	} else {
		e.injEligAt[u] = farFuture
	}
	e.refreshInjReady(u, cycle)
}

// refreshInjReady recomputes whether u's front packet is arbitrable now,
// scheduling a wake for a future front.
func (e *desEngine) refreshInjReady(u int, cycle int64) {
	ready := false
	if ptr := int(e.injPtr[u]); ptr < len(e.bySrc[u]) {
		p := e.bySrc[u][ptr]
		if e.pktInject[p] <= cycle {
			ready = e.pktInjected[p] == 0
		} else {
			e.heapPush(e.pktInject[p], int32(u))
		}
	}
	e.injReady[u] = ready
	e.refreshNodeBit(u)
}

// nextWake returns the next cycle at which the frozen network state can
// change: the earliest flit-maturity wake, the earliest future injection,
// or cycle+1 when token rotation could hand the channel to a waiting
// wireless sender. Falls through to maxCycles (the truncation point) when
// nothing is scheduled — a genuine deadlock.
func (e *desEngine) nextWake(cycle, maxCycles int64) int64 {
	if e.wirelessWaiting(cycle) {
		return cycle + 1
	}
	next := maxCycles
	for k := int64(1); k <= e.maxDelay; k++ {
		w := cycle + k
		if w >= next {
			break
		}
		if e.arrWake[w%e.wakeW] == w {
			next = w
			break
		}
	}
	if len(e.injHeap) > 0 && e.injHeap[0].cyc < next {
		next = e.injHeap[0].cyc
	}
	if next <= cycle {
		next = cycle + 1
	}
	return next
}

// wirelessWaiting reports whether any wireless ring member could transmit
// next cycle given the frozen state — in which case token rotation is
// consequential and idle cycles must not be skipped. Conservative: a true
// only costs simulating a few real cycles.
func (e *desEngine) wirelessWaiting(cycle int64) bool {
	for ch := 0; ch < topo.NumChannels; ch++ {
		for _, m := range e.rings[ch] {
			u := int(m)
			deg := int(e.base[u+1] - e.base[u])
			// A member has one wireless output per other ring member; any of
			// them being sendable (or bindable) makes rotation consequential.
			for li := e.base[u]; li < e.base[u+1]; li++ {
				if !e.linkWireless[li] || int(e.linkChannel[li]) != ch {
					continue
				}
				if p := e.bindPkt[li]; p >= 0 {
					dstBuf := e.linkRev[li]
					if e.bufLen[dstBuf] >= e.bufCap[dstBuf] {
						continue // blocked on credit; drains only via activity
					}
					if int(e.bindSrcQ[li]) == deg {
						if e.pktInjected[p] < e.pktFlits[p] {
							return true // bound injection is always eligible
						}
						continue
					}
					b := e.base[u] + e.bindSrcQ[li]
					if e.bufLen[b] > 0 {
						h := &e.arena[e.bufStart[b]+e.bufHead[b]]
						if h.pkt == p && h.arrived <= cycle {
							return true
						}
					}
				} else if e.arbitrate(u, int(li-e.base[u]), deg, cycle+1) {
					return true
				}
			}
		}
	}
	return false
}

// holderBound reports whether ring member m has a live binding on any of
// its wireless outputs on channel ch — the condition under which an idle
// cycle's phase 3 marks the channel held-busy and the token stays put.
func (e *desEngine) holderBound(m int32, ch int) bool {
	u := int(m)
	for li := e.base[u]; li < e.base[u+1]; li++ {
		if e.linkWireless[li] && int(e.linkChannel[li]) == ch && e.bindPkt[li] >= 0 {
			return true
		}
	}
	return false
}

// fastForwardTokens applies `skipped` idle cycles of token rotation
// analytically: each idle cycle the token passes on unless the holder has
// an in-flight wormhole on the channel, and binding state is frozen while
// cycles are skipped, so rotation either halts at the first bound member
// or cycles the whole ring modularly.
func (e *desEngine) fastForwardTokens(skipped int64) {
	if skipped <= 0 {
		return
	}
	for ch := 0; ch < topo.NumChannels; ch++ {
		ring := e.rings[ch]
		if len(ring) == 0 {
			continue
		}
		size := int64(len(ring))
		var steps int64
		for steps < skipped {
			if e.holderBound(ring[e.tokenIdx[ch]], ch) {
				break // holder keeps the token for the rest of the span
			}
			e.tokenIdx[ch] = (e.tokenIdx[ch] + 1) % int32(size)
			steps++
			if steps == size {
				// full lap without a bound holder: pure modular rotation
				e.tokenIdx[ch] = (e.tokenIdx[ch] + int32((skipped-steps)%size)) % int32(size)
				break
			}
		}
	}
}

// heapPush adds an injection wake to the min-heap (manual sift, no
// interface boxing, so the steady-state loop stays allocation-free).
func (e *desEngine) heapPush(cyc int64, src int32) {
	e.injHeap = append(e.injHeap, injEvent{cyc: cyc, src: src})
	i := len(e.injHeap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if e.injHeap[parent].cyc <= e.injHeap[i].cyc {
			break
		}
		e.injHeap[parent], e.injHeap[i] = e.injHeap[i], e.injHeap[parent]
		i = parent
	}
}

// heapPop removes and returns the source of the earliest injection wake.
func (e *desEngine) heapPop() int32 {
	src := e.injHeap[0].src
	last := len(e.injHeap) - 1
	e.injHeap[0] = e.injHeap[last]
	e.injHeap = e.injHeap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && e.injHeap[l].cyc < e.injHeap[small].cyc {
			small = l
		}
		if r < last && e.injHeap[r].cyc < e.injHeap[small].cyc {
			small = r
		}
		if small == i {
			break
		}
		e.injHeap[i], e.injHeap[small] = e.injHeap[small], e.injHeap[i]
		i = small
	}
	return src
}

// grow helpers: reuse capacity, allocate only on growth.

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
