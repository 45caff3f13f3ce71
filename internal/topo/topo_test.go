package topo

import (
	"math"
	"reflect"
	"testing"

	"wivfi/internal/platform"
)

func TestMeshStructure(t *testing.T) {
	chip := platform.DefaultChip()
	m := Mesh(chip)
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// 8x8 mesh has 2*8*7 = 112 bidirectional links -> avg degree 3.5
	if got := m.AvgDegree(); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("AvgDegree = %v, want 3.5", got)
	}
	if got := m.MaxDegree(); got != 4 {
		t.Errorf("MaxDegree = %d, want 4", got)
	}
	// corner has 2 links, edge 3, interior 4
	if got := m.Degree(0); got != 2 {
		t.Errorf("corner degree = %d, want 2", got)
	}
	if got := m.Degree(1); got != 3 {
		t.Errorf("edge degree = %d, want 3", got)
	}
	if got := m.Degree(9); got != 4 {
		t.Errorf("interior degree = %d, want 4", got)
	}
	// all links one tile long
	for s, links := range m.Adj {
		for _, l := range links {
			if l.Type != Wireline || math.Abs(l.LengthMM-chip.TileMM) > 1e-12 {
				t.Fatalf("mesh link %d->%d: %+v", s, l.To, l)
			}
		}
	}
}

func TestQuadrants(t *testing.T) {
	chip := platform.DefaultChip()
	quads := Quadrants(chip)
	if len(quads) != 4 {
		t.Fatalf("quadrant count = %d", len(quads))
	}
	for q, tiles := range quads {
		if len(tiles) != 16 {
			t.Errorf("quadrant %d size = %d, want 16", q, len(tiles))
		}
	}
	// spot checks: tile 0 top-left, 7 top-right, 56 bottom-left, 63 bottom-right
	of := QuadrantOf(chip)
	if of[0] != 0 || of[7] != 1 || of[56] != 2 || of[63] != 3 {
		t.Errorf("quadrant corners = %d,%d,%d,%d", of[0], of[7], of[56], of[63])
	}
	// QuadrantOf consistent with Quadrants
	for q, tiles := range quads {
		for _, id := range tiles {
			if of[id] != q {
				t.Fatalf("tile %d: QuadrantOf=%d but listed in quadrant %d", id, of[id], q)
			}
		}
	}
}

func TestMinKIntra(t *testing.T) {
	if got := MinKIntra(16); math.Abs(got-1.875) > 1e-12 {
		t.Errorf("MinKIntra(16) = %v, want 1.875 (paper Section 7.2)", got)
	}
}

func TestSmallWorldStructure(t *testing.T) {
	chip := platform.DefaultChip()
	cfg := DefaultSmallWorldConfig()
	tp, err := SmallWorld(chip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// ⟨k⟩ target is 4: (3+1). Construction rounds per cluster/pair, allow
	// a little slack but require the average close to 4 and capped by k_max.
	if got := tp.AvgDegree(); got < 3.5 || got > 4.5 {
		t.Errorf("AvgDegree = %v, want ~4", got)
	}
	if got := tp.MaxDegree(); got > cfg.KMax {
		t.Errorf("MaxDegree = %d exceeds k_max %d", got, cfg.KMax)
	}
	// every cluster internally connected (ignoring other clusters)
	of := QuadrantOf(chip)
	for q, tiles := range Quadrants(chip) {
		if !subgraphConnected(tp, tiles, of, q) {
			t.Errorf("cluster %d not internally connected", q)
		}
	}
}

// subgraphConnected checks connectivity of a cluster using only
// intra-cluster links.
func subgraphConnected(tp *Topology, tiles []int, of []int, q int) bool {
	seen := map[int]bool{tiles[0]: true}
	stack := []int{tiles[0]}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range tp.Adj[s] {
			if of[l.To] == q && !seen[l.To] {
				seen[l.To] = true
				stack = append(stack, l.To)
			}
		}
	}
	return len(seen) == len(tiles)
}

func TestSmallWorldIntraInterSplit(t *testing.T) {
	chip := platform.DefaultChip()
	cfg := DefaultSmallWorldConfig()
	tp, err := SmallWorld(chip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	of := QuadrantOf(chip)
	var intra, inter int
	for s, links := range tp.Adj {
		for _, l := range links {
			if s < l.To { // count each bidirectional link once
				if of[s] == of[l.To] {
					intra++
				} else {
					inter++
				}
			}
		}
	}
	// (3,1): 4 clusters × 24 intra links = 96; 32 inter links.
	if intra != 96 {
		t.Errorf("intra links = %d, want 96 for k_intra=3", intra)
	}
	if inter != 32 {
		t.Errorf("inter links = %d, want 32 for k_inter=1", inter)
	}
}

func TestSmallWorldTrafficProportionalInterLinks(t *testing.T) {
	chip := platform.DefaultChip()
	cfg := DefaultSmallWorldConfig()
	// clusters 0 and 1 exchange nearly all inter-cluster traffic
	cfg.InterTraffic = [][]float64{
		{0, 100, 1, 1},
		{100, 0, 1, 1},
		{1, 1, 0, 1},
		{1, 1, 1, 0},
	}
	tp, err := SmallWorld(chip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	of := QuadrantOf(chip)
	counts := map[[2]int]int{}
	for s, links := range tp.Adj {
		for _, l := range links {
			if s < l.To && of[s] != of[l.To] {
				a, b := of[s], of[l.To]
				if a > b {
					a, b = b, a
				}
				counts[[2]int{a, b}]++
			}
		}
	}
	// pair (0,1) must dominate, every pair gets at least one link
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			if counts[[2]int{a, b}] == 0 {
				t.Errorf("cluster pair (%d,%d) has no link", a, b)
			}
		}
	}
	heavy := counts[[2]int{0, 1}]
	for pair, c := range counts {
		if pair != [2]int{0, 1} && c >= heavy {
			t.Errorf("pair %v has %d links >= heavy pair's %d", pair, c, heavy)
		}
	}
	if heavy < 10 {
		t.Errorf("heavy pair has only %d of 32 inter links", heavy)
	}
}

func TestSmallWorldDeterministicForSeed(t *testing.T) {
	chip := platform.DefaultChip()
	cfg := DefaultSmallWorldConfig()
	a, err := SmallWorld(chip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SmallWorld(chip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range a.Adj {
		if len(a.Adj[s]) != len(b.Adj[s]) {
			t.Fatalf("degree mismatch at switch %d", s)
		}
		for i := range a.Adj[s] {
			if a.Adj[s][i] != b.Adj[s][i] {
				t.Fatalf("link mismatch at switch %d index %d", s, i)
			}
		}
	}
}

func TestSmallWorldRejectsInfeasibleKIntra(t *testing.T) {
	cfg := DefaultSmallWorldConfig()
	cfg.KIntra = 1.0 // below the 1.875 connectivity bound for 16-node clusters
	if _, err := SmallWorld(platform.DefaultChip(), cfg); err == nil {
		t.Error("k_intra below connectivity minimum accepted")
	}
}

func TestSmallWorldRejectsBadParams(t *testing.T) {
	cfg := DefaultSmallWorldConfig()
	cfg.KMax = 1
	if _, err := SmallWorld(platform.DefaultChip(), cfg); err == nil {
		t.Error("k_max=1 accepted")
	}
	cfg = DefaultSmallWorldConfig()
	cfg.Alpha = 0
	if _, err := SmallWorld(platform.DefaultChip(), cfg); err == nil {
		t.Error("alpha=0 accepted")
	}
}

func TestSmallWorld22Variant(t *testing.T) {
	cfg := DefaultSmallWorldConfig()
	cfg.KIntra, cfg.KInter = 2, 2
	tp, err := SmallWorld(platform.DefaultChip(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	of := QuadrantOf(tp.Chip)
	var intra, inter int
	for s, links := range tp.Adj {
		for _, l := range links {
			if s < l.To {
				if of[s] == of[l.To] {
					intra++
				} else {
					inter++
				}
			}
		}
	}
	if intra != 64 { // 4 clusters × 16
		t.Errorf("intra links = %d, want 64 for k_intra=2", intra)
	}
	if inter != 64 {
		t.Errorf("inter links = %d, want 64 for k_inter=2", inter)
	}
}

func wiPlacementCenters(chip platform.Chip) [][]int {
	// three distinct switches near the centre of each quadrant
	return [][]int{
		{chip.ID(1, 1), chip.ID(1, 2), chip.ID(2, 1)},
		{chip.ID(1, 5), chip.ID(1, 6), chip.ID(2, 6)},
		{chip.ID(5, 1), chip.ID(6, 1), chip.ID(6, 2)},
		{chip.ID(5, 6), chip.ID(6, 6), chip.ID(6, 5)},
	}
}

func TestAddWireless(t *testing.T) {
	chip := platform.DefaultChip()
	tp, err := SmallWorld(chip, DefaultSmallWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	placement := wiPlacementCenters(chip)
	if err := AddWireless(tp, placement); err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(tp.WIs) != 12 {
		t.Fatalf("WI count = %d, want 12", len(tp.WIs))
	}
	// each channel hosts 4 WIs, one per cluster; channel members fully linked
	byChannel := map[int][]int{}
	for _, s := range tp.WIs {
		byChannel[tp.ChannelOf[s]] = append(byChannel[tp.ChannelOf[s]], s)
	}
	if len(byChannel) != NumChannels {
		t.Fatalf("channel count = %d, want %d", len(byChannel), NumChannels)
	}
	for ch, members := range byChannel {
		if len(members) != 4 {
			t.Errorf("channel %d has %d WIs, want 4", ch, len(members))
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if !tp.HasLink(members[i], members[j]) {
					t.Errorf("channel %d WIs %d,%d not linked", ch, members[i], members[j])
				}
			}
		}
	}
	// wireless links shrink the network diameter below the pure-wireline one
	// (checked indirectly: a WI pair in opposite corners is now 1 hop)
	if !tp.HasLink(chip.ID(1, 1), chip.ID(5, 6)) {
		t.Error("cross-chip WIs on channel 0 should be directly linked")
	}
}

func TestAddWirelessRejectsBadPlacement(t *testing.T) {
	chip := platform.DefaultChip()
	tp, _ := SmallWorld(chip, DefaultSmallWorldConfig())
	// wrong WI count per cluster
	if err := AddWireless(tp, [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}); err == nil {
		t.Error("short placement accepted")
	}
	tp2, _ := SmallWorld(chip, DefaultSmallWorldConfig())
	dup := wiPlacementCenters(chip)
	dup[1][0] = dup[0][0] // duplicate switch
	if err := AddWireless(tp2, dup); err == nil {
		t.Error("duplicate WI switch accepted")
	}
	tp3, _ := SmallWorld(chip, DefaultSmallWorldConfig())
	if err := AddWireless(tp3, wiPlacementCenters(chip)); err != nil {
		t.Fatal(err)
	}
	if err := AddWireless(tp3, wiPlacementCenters(chip)); err == nil {
		t.Error("double AddWireless accepted")
	}
}

func TestWirelessLinksHaveChannelAndNoLength(t *testing.T) {
	chip := platform.DefaultChip()
	tp, _ := SmallWorld(chip, DefaultSmallWorldConfig())
	if err := AddWireless(tp, wiPlacementCenters(chip)); err != nil {
		t.Fatal(err)
	}
	sawWireless := false
	for _, links := range tp.Adj {
		for _, l := range links {
			switch l.Type {
			case Wireless:
				sawWireless = true
				if l.Channel < 0 || l.Channel >= NumChannels {
					t.Fatalf("wireless link with channel %d", l.Channel)
				}
				if l.LengthMM != 0 {
					t.Fatal("wireless link has a physical length")
				}
			case Wireline:
				if l.Channel != -1 {
					t.Fatal("wireline link carries a channel id")
				}
				if l.LengthMM <= 0 {
					t.Fatal("wireline link without length")
				}
			}
		}
	}
	if !sawWireless {
		t.Fatal("no wireless links present")
	}
}

func TestDisableWI(t *testing.T) {
	chip := platform.DefaultChip()
	tp, _ := SmallWorld(chip, DefaultSmallWorldConfig())
	if err := AddWireless(tp, wiPlacementCenters(chip)); err != nil {
		t.Fatal(err)
	}
	victim := tp.WIs[0]
	if err := DisableWI(tp, victim); err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatalf("topology invalid after WI failure: %v", err)
	}
	if len(tp.WIs) != 11 {
		t.Errorf("WI count = %d, want 11", len(tp.WIs))
	}
	if _, ok := tp.ChannelOf[victim]; ok {
		t.Error("failed WI still registered on a channel")
	}
	for u, links := range tp.Adj {
		for _, l := range links {
			if l.Type == Wireless && (u == victim || l.To == victim) {
				t.Fatalf("wireless link %d<->%d survived the failure", u, l.To)
			}
		}
	}
	// double-failure of the same switch is an error
	if err := DisableWI(tp, victim); err == nil {
		t.Error("disabling a non-WI switch accepted")
	}
}

func TestDisableAllWIsLeavesWirelineFabric(t *testing.T) {
	chip := platform.DefaultChip()
	tp, _ := SmallWorld(chip, DefaultSmallWorldConfig())
	if err := AddWireless(tp, wiPlacementCenters(chip)); err != nil {
		t.Fatal(err)
	}
	for len(tp.WIs) > 0 {
		if err := DisableWI(tp, tp.WIs[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.Validate(); err != nil {
		t.Fatalf("wireline fabric broken after total wireless loss: %v", err)
	}
	for _, links := range tp.Adj {
		for _, l := range links {
			if l.Type == Wireless {
				t.Fatal("orphan wireless link")
			}
		}
	}
}

// TestWithWirelessLeavesFabricUnchanged: the copy-overlay helper must equal
// an in-place AddWireless on a fresh build of the same fabric, leave its
// input untouched, and yield copies that mutate independently (DisableWI
// on one copy reaches neither the fabric nor a sibling copy).
func TestWithWirelessLeavesFabricUnchanged(t *testing.T) {
	chip := platform.DefaultChip()
	wire, err := SmallWorld(chip, DefaultSmallWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := SmallWorld(chip, DefaultSmallWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := SmallWorld(chip, DefaultSmallWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	placement := wiPlacementCenters(chip)
	if err := AddWireless(want, placement); err != nil {
		t.Fatal(err)
	}
	a, err := WithWireless(wire, placement)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatal("WithWireless differs from AddWireless on a fresh fabric")
	}
	if !reflect.DeepEqual(wire, pristine) {
		t.Fatal("WithWireless mutated its input fabric")
	}
	b, err := WithWireless(wire, placement)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append([]int(nil), a.WIs...) {
		if err := DisableWI(a, s); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(wire, pristine) || !reflect.DeepEqual(b, want) {
		t.Fatal("DisableWI on one copy leaked into the fabric or a sibling copy")
	}
	if _, err := WithWireless(wire, [][]int{{0, 1}}); err == nil {
		t.Fatal("bad placement accepted")
	}
	if !reflect.DeepEqual(wire, pristine) {
		t.Fatal("rejected placement mutated the input fabric")
	}
}
