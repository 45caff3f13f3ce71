package qp

import (
	"math"
	"math/rand"
	"testing"

	"wivfi/internal/stats"
)

// randomProblem builds a feasible random instance with max-normalized inputs.
func randomProblem(rng *rand.Rand, n, m int) *Problem {
	util, comm := randomInputs(rng, n)
	return &Problem{
		N: n, M: m,
		Comm:        stats.NormalizeMatrixMax(comm),
		Util:        stats.NormalizeMax(util),
		TargetMeans: stats.QuartileMeans(util, m),
		Wc:          1, Wu: 1,
	}
}

// randomInputs draws n utilizations and a 40%-dense traffic matrix.
func randomInputs(rng *rand.Rand, n int) ([]float64, [][]float64) {
	util := make([]float64, n)
	for i := range util {
		util[i] = rng.Float64()
	}
	comm := make([][]float64, n)
	for i := range comm {
		comm[i] = make([]float64, n)
		for j := range comm[i] {
			if i != j && rng.Float64() < 0.4 {
				comm[i][j] = rng.Float64()
			}
		}
	}
	return util, comm
}

func feasible(t *testing.T, p *Problem, assign []int) {
	t.Helper()
	counts := make([]int, p.M)
	for i, j := range assign {
		if j < 0 || j >= p.M {
			t.Fatalf("core %d in invalid cluster %d", i, j)
		}
		counts[j]++
	}
	for j, c := range counts {
		if c != p.SizeOf(j) {
			t.Fatalf("cluster %d holds %d cores, want %d", j, c, p.SizeOf(j))
		}
	}
}

// randomSizes splits n cores into m clusters of at least one core each,
// drawn so that the clusters are usually unequal.
func randomSizes(rng *rand.Rand, n, m int) []int {
	sizes := make([]int, m)
	for j := range sizes {
		sizes[j] = 1
	}
	for k := m; k < n; k++ {
		sizes[rng.Intn(m)]++
	}
	return sizes
}

// randomUnequalProblem is randomProblem with a prescribed unequal split,
// its target means taken per group the way vfi.BuildProblem does.
func randomUnequalProblem(rng *rand.Rand, sizes []int) *Problem {
	n := 0
	for _, s := range sizes {
		n += s
	}
	util, comm := randomInputs(rng, n)
	normU := stats.NormalizeMax(util)
	return &Problem{
		N: n, M: len(sizes), Sizes: sizes,
		Comm:        stats.NormalizeMatrixMax(comm),
		Util:        normU,
		TargetMeans: stats.GroupMeansBySizes(normU, sizes),
		Wc:          1, Wu: 1,
	}
}

func TestValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	good := randomProblem(rng, 8, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	bad := *good
	bad.M = 3 // 8 not divisible by 3
	if err := bad.Validate(); err == nil {
		t.Error("indivisible n/m accepted")
	}
	bad2 := *good
	bad2.Util = bad2.Util[:4]
	if err := bad2.Validate(); err == nil {
		t.Error("short util vector accepted")
	}
	bad3 := *good
	bad3.Wu = -1
	if err := bad3.Validate(); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestPhiComm(t *testing.T) {
	p := &Problem{M: 4}
	if got := p.PhiComm(1, 2); got != 1 {
		t.Errorf("inter-cluster phi = %v, want 1", got)
	}
	if got := p.PhiComm(3, 3); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("intra-cluster phi = %v, want 1/sqrt(4)=0.5", got)
	}
}

func TestCostHandComputed(t *testing.T) {
	// 4 cores, 2 clusters. Traffic only between 0->1 and 2->3.
	p := &Problem{
		N: 4, M: 2,
		Comm: [][]float64{
			{0, 1, 0, 0},
			{0, 0, 0, 0},
			{0, 0, 0, 0.5},
			{0, 0, 0, 0},
		},
		Util:        []float64{0.1, 0.2, 0.8, 0.9},
		TargetMeans: []float64{0.15, 0.85},
		Wc:          1, Wu: 1,
	}
	intra := 1 / math.Sqrt(2)
	// Grouping {0,1} and {2,3}: both flows intra-cluster; util deviations
	// all 0.05.
	assign := []int{0, 0, 1, 1}
	wantComm := 1*intra + 0.5*intra
	wantUtil := 4 * 0.05 * 0.05
	if got := p.Cost(assign); math.Abs(got-(wantComm+wantUtil)) > 1e-12 {
		t.Errorf("Cost = %v, want %v", got, wantComm+wantUtil)
	}
	// Grouping {0,2} and {1,3}: both flows inter-cluster.
	assign2 := []int{0, 1, 0, 1}
	wantComm2 := 1.0 + 0.5
	d := func(u, target float64) float64 { v := u - target; return v * v }
	wantUtil2 := d(0.1, 0.15) + d(0.2, 0.85) + d(0.8, 0.15) + d(0.9, 0.85)
	if got := p.Cost(assign2); math.Abs(got-(wantComm2+wantUtil2)) > 1e-12 {
		t.Errorf("Cost = %v, want %v", got, wantComm2+wantUtil2)
	}
}

func TestBranchAndBoundFindsObviousClustering(t *testing.T) {
	// Two tight traffic communities with matching utilization levels: the
	// optimum must group {0,1} and {2,3}.
	p := &Problem{
		N: 4, M: 2,
		Comm: [][]float64{
			{0, 1, 0, 0},
			{1, 0, 0, 0},
			{0, 0, 0, 1},
			{0, 0, 1, 0},
		},
		Util:        []float64{0.1, 0.1, 0.9, 0.9},
		TargetMeans: []float64{0.1, 0.9},
		Wc:          1, Wu: 1,
	}
	sol, err := BranchAndBound(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Exact {
		t.Error("branch-and-bound solution not marked exact")
	}
	feasible(t, p, sol.Assign)
	if sol.Assign[0] != sol.Assign[1] || sol.Assign[2] != sol.Assign[3] || sol.Assign[0] == sol.Assign[2] {
		t.Errorf("optimum should pair {0,1} and {2,3}, got %v", sol.Assign)
	}
	// low-util pair must sit in the low-target cluster
	if sol.Assign[0] != 0 {
		t.Errorf("low-utilization pair in cluster %d, want 0", sol.Assign[0])
	}
}

func TestBranchAndBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(rng, 6, 2)
		sol, err := BranchAndBound(p, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		feasible(t, p, sol.Assign)
		// brute force over all C(6,3)=20 balanced partitions
		best := math.Inf(1)
		assign := make([]int, 6)
		var enumerate func(i, used0 int)
		var bestAssign []int
		enumerate = func(i, used0 int) {
			if used0 > 3 || (i-used0) > 3 {
				return
			}
			if i == 6 {
				if c := p.Cost(assign); c < best {
					best = c
					bestAssign = append(bestAssign[:0], assign...)
				}
				return
			}
			assign[i] = 0
			enumerate(i+1, used0+1)
			assign[i] = 1
			enumerate(i+1, used0)
		}
		enumerate(0, 0)
		if math.Abs(sol.Cost-best) > 1e-9 {
			t.Errorf("trial %d: B&B cost %v != brute force %v (%v vs %v)",
				trial, sol.Cost, best, sol.Assign, bestAssign)
		}
	}
}

// TestBranchAndBoundMatchesBruteForceUnequal covers the prescribed
// unequal splits the sweep's skewed island axis uses: B&B must honour
// every SizeOf(j) and find the brute-force optimum over all m^n
// assignments with those cluster sizes.
func TestBranchAndBoundMatchesBruteForceUnequal(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, sizes := range [][]int{{2, 4}, {1, 5}, {4, 2}, {1, 2, 4}, {3, 1, 3}} {
		for trial := 0; trial < 4; trial++ {
			p := randomUnequalProblem(rng, sizes)
			sol, err := BranchAndBound(p, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			feasible(t, p, sol.Assign)
			best := math.Inf(1)
			assign := make([]int, p.N)
			counts := make([]int, p.M)
			var enumerate func(i int)
			enumerate = func(i int) {
				if i == p.N {
					if c := p.Cost(assign); c < best {
						best = c
					}
					return
				}
				for j := 0; j < p.M; j++ {
					if counts[j] == p.SizeOf(j) {
						continue
					}
					assign[i] = j
					counts[j]++
					enumerate(i + 1)
					counts[j]--
				}
			}
			enumerate(0)
			if math.Abs(sol.Cost-best) > 1e-9 {
				t.Errorf("sizes %v trial %d: B&B cost %v != brute force %v", sizes, trial, sol.Cost, best)
			}
		}
	}
}

// TestAnnealFeasibleOnUnequalSizes: the annealer and KL only ever swap,
// so every prescribed cluster size survives, and neither heuristic beats
// the exact optimum. (Swap-only moves can stall on a tiny skewed split:
// the 1/3/4 instance below ends 2.2% above its optimum.)
func TestAnnealFeasibleOnUnequalSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 6; trial++ {
		n, m := 8+rng.Intn(40), 2+rng.Intn(4)
		p := randomUnequalProblem(rng, randomSizes(rng, n, m))
		sol, err := Anneal(p, DefaultAnnealOptions())
		if err != nil {
			t.Fatal(err)
		}
		feasible(t, p, sol.Assign)
		refined, err := SolveRefined(p, DefaultAnnealOptions())
		if err != nil {
			t.Fatal(err)
		}
		feasible(t, p, refined.Assign)
	}
	for _, sizes := range [][]int{{2, 6}, {1, 3, 4}} {
		p := randomUnequalProblem(rng, sizes)
		exact, err := BranchAndBound(p, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		feasible(t, p, exact.Assign)
		for name, solve := range map[string]func(*Problem, AnnealOptions) (Solution, error){
			"anneal": Anneal, "anneal+kl": SolveRefined,
		} {
			heur, err := solve(p, DefaultAnnealOptions())
			if err != nil {
				t.Fatal(err)
			}
			feasible(t, p, heur.Assign)
			if heur.Cost < exact.Cost-1e-9 {
				t.Errorf("sizes %v: %s cost %v beats proven optimum %v", sizes, name, heur.Cost, exact.Cost)
			}
		}
	}
}

func TestBranchAndBoundNodeCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 12, 3)
	if _, err := BranchAndBound(p, 10); err == nil {
		t.Error("expected node-cap error")
	}
}

func TestGreedySeedFeasibleAndUtilOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomProblem(rng, 16, 4)
	assign := GreedySeed(p)
	feasible(t, p, assign)
	// With wc=0 the greedy quartile assignment is optimal for the util term.
	pu := *p
	pu.Wc = 0
	sol, err := BranchAndBound(&pu, 50_000_000)
	if err != nil {
		t.Skipf("B&B too large: %v", err)
	}
	if got := pu.Cost(assign); got > sol.Cost+1e-9 {
		t.Errorf("greedy util cost %v worse than optimal %v", got, sol.Cost)
	}
}

func TestSwapDeltaMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng, 12, 3)
		assign := GreedySeed(p)
		// randomize a bit
		for k := 0; k < 10; k++ {
			a, b := rng.Intn(p.N), rng.Intn(p.N)
			assign[a], assign[b] = assign[b], assign[a]
		}
		base := p.Cost(assign)
		gt := newGainTable(p)
		gt.reset(assign)
		for k := 0; k < 20; k++ {
			a, b := rng.Intn(p.N), rng.Intn(p.N)
			if assign[a] == assign[b] {
				continue
			}
			d, dt := p.swapDelta(assign, a, b), gt.delta(a, b)
			assign[a], assign[b] = assign[b], assign[a]
			gt.swap(a, b)
			after := p.Cost(assign)
			if math.Abs((base+d)-after) > 1e-9 {
				t.Fatalf("delta mismatch: base %v + delta %v != %v", base, d, after)
			}
			if math.Abs((base+dt)-after) > 1e-9 {
				t.Fatalf("table delta mismatch: base %v + delta %v != %v", base, dt, after)
			}
			base = after
		}
	}
}

func TestAnnealNearOptimalOnSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		p := randomProblem(rng, 8, 2)
		exact, err := BranchAndBound(p, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		heur, err := Anneal(p, DefaultAnnealOptions())
		if err != nil {
			t.Fatal(err)
		}
		feasible(t, p, heur.Assign)
		if heur.Cost < exact.Cost-1e-9 {
			t.Fatalf("heuristic cost %v beats proven optimum %v", heur.Cost, exact.Cost)
		}
		if heur.Cost > exact.Cost*1.02+1e-9 {
			t.Errorf("trial %d: anneal cost %v more than 2%% above optimum %v", trial, heur.Cost, exact.Cost)
		}
	}
}

func TestAnnealDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomProblem(rng, 16, 4)
	opts := DefaultAnnealOptions()
	a, err := Anneal(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Errorf("non-deterministic costs: %v vs %v", a.Cost, b.Cost)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("non-deterministic assignment at %d", i)
		}
	}
}

func TestAnnealScalesTo64Cores(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := randomProblem(rng, 64, 4)
	sol, err := Anneal(p, DefaultAnnealOptions())
	if err != nil {
		t.Fatal(err)
	}
	feasible(t, p, sol.Assign)
	greedyCost := p.Cost(GreedySeed(p))
	if sol.Cost > greedyCost+1e-9 {
		t.Errorf("anneal (%v) worse than its greedy seed (%v)", sol.Cost, greedyCost)
	}
}

func TestAnnealRejectsBadOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := randomProblem(rng, 8, 2)
	for _, tc := range []struct {
		name string
		opts AnnealOptions
	}{
		{"zero value", AnnealOptions{}},
		{"zero temperatures", AnnealOptions{Restarts: 1, Sweeps: 1}},
		{"zero end temperature", AnnealOptions{Restarts: 1, Sweeps: 1, StartTemp: 1}},
		{"negative temperatures", AnnealOptions{Restarts: 1, Sweeps: 1, StartTemp: -1, EndTemp: -2}},
		{"end above start", AnnealOptions{Restarts: 1, Sweeps: 1, StartTemp: 1e-4, EndTemp: 1}},
		{"NaN start", AnnealOptions{Restarts: 1, Sweeps: 1, StartTemp: math.NaN(), EndTemp: 1e-4}},
		{"NaN end", AnnealOptions{Restarts: 1, Sweeps: 1, StartTemp: 1, EndTemp: math.NaN()}},
		{"infinite start", AnnealOptions{Restarts: 1, Sweeps: 1, StartTemp: math.Inf(1), EndTemp: 1e-4}},
		{"infinite both", AnnealOptions{Restarts: 1, Sweeps: 1, StartTemp: math.Inf(1), EndTemp: math.Inf(1)}},
	} {
		if _, err := Anneal(p, tc.opts); err == nil {
			t.Errorf("%s: options %+v accepted", tc.name, tc.opts)
		}
	}
	// Equal temperatures are a valid constant-temperature schedule.
	if _, err := Anneal(p, AnnealOptions{Restarts: 1, Sweeps: 1, StartTemp: 0.5, EndTemp: 0.5}); err != nil {
		t.Errorf("constant temperature rejected: %v", err)
	}
}

func TestSolveDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	small := randomProblem(rng, 8, 2)
	sol, err := Solve(small, DefaultAnnealOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Exact {
		t.Error("small instance should be solved exactly")
	}
	large := randomProblem(rng, 32, 4)
	sol2, err := Solve(large, DefaultAnnealOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Exact {
		t.Error("large instance cannot be marked exact")
	}
	feasible(t, large, sol2.Assign)
}

// Property: communication-dominant weights group the traffic community;
// utilization-dominant weights sort by utilization, matching the paper's
// discussion of the ω_c/ω_u trade-off.
func TestWeightTradeoffProperty(t *testing.T) {
	// Cores 0,3 talk heavily; their utilizations are far apart.
	p := &Problem{
		N: 4, M: 2,
		Comm: [][]float64{
			{0, 0, 0, 1},
			{0, 0, 0, 0},
			{0, 0, 0, 0},
			{1, 0, 0, 0},
		},
		Util:        []float64{0.0, 0.1, 0.9, 1.0},
		TargetMeans: []float64{0.05, 0.95},
		Wc:          100, Wu: 1,
	}
	sol, err := BranchAndBound(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assign[0] != sol.Assign[3] {
		t.Errorf("comm-dominant weights should co-locate 0 and 3: %v", sol.Assign)
	}
	p.Wc, p.Wu = 1, 100
	sol, err = BranchAndBound(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assign[0] != sol.Assign[1] || sol.Assign[2] != sol.Assign[3] {
		t.Errorf("util-dominant weights should sort by utilization: %v", sol.Assign)
	}
}

// Property: the cost function is invariant under relabeling only when the
// target means are equal; with distinct targets the labeling matters. This
// guards the semantics B&B relies on.
func TestCostLabelSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := randomProblem(rng, 8, 2)
	assign := GreedySeed(p)
	flipped := make([]int, len(assign))
	for i, j := range assign {
		flipped[i] = 1 - j
	}
	if p.TargetMeans[0] != p.TargetMeans[1] {
		if math.Abs(p.Cost(assign)-p.Cost(flipped)) < 1e-15 {
			t.Skip("degenerate random instance")
		}
	}
	// Equal targets: relabeling must not change cost.
	p.TargetMeans = []float64{0.5, 0.5}
	if math.Abs(p.Cost(assign)-p.Cost(flipped)) > 1e-12 {
		t.Error("cost changed under relabeling with equal targets")
	}
}

// Property: swapping a pair and swapping it back restores the cost exactly
// (delta antisymmetry), for random instances and assignments.
func TestSwapDeltaAntisymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng, 12, 3)
		assign := GreedySeed(p)
		for k := 0; k < 6; k++ {
			a, b := rng.Intn(p.N), rng.Intn(p.N)
			assign[a], assign[b] = assign[b], assign[a]
		}
		a, b := rng.Intn(p.N), rng.Intn(p.N)
		if assign[a] == assign[b] {
			continue
		}
		d1 := p.swapDelta(assign, a, b)
		assign[a], assign[b] = assign[b], assign[a]
		d2 := p.swapDelta(assign, a, b)
		if math.Abs(d1+d2) > 1e-9 {
			t.Fatalf("deltas not antisymmetric: %v and %v", d1, d2)
		}
	}
}

// Property: the optimal cost never increases when communication disappears
// (with wc scaled to zero only the separable utilization term remains, whose
// optimum is the greedy quartile assignment).
func TestZeroCommReducesToQuartileAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(rng, 8, 2)
		p.Wc = 0
		exact, err := BranchAndBound(p, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		greedy := GreedySeed(p)
		if math.Abs(p.Cost(greedy)-exact.Cost) > 1e-9 {
			t.Fatalf("greedy quartile cost %v != optimum %v without comm", p.Cost(greedy), exact.Cost)
		}
	}
}
