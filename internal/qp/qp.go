// Package qp solves the 0-1 quadratic program at the heart of the paper's
// VFI creation (Section 4.1, Eq. 1-2):
//
//	min  ω_c · Σ X_ij X_pq f_ip φ_comm(j,q)  +  ω_u · Σ X_ij (u_i − ū_j)²
//	s.t. every core in exactly one cluster, every cluster holding n/m cores,
//
// where φ_comm(j,q) = 1 for inter-cluster pairs and 1/√m for intra-cluster
// pairs, and ū_j is the mean of the j-th m-quantile of the utilization
// values.
//
// The paper solves this NP-hard program with Gurobi's branch-and-bound. As a
// from-scratch substitution this package provides two solvers:
//
//   - BranchAndBound: exact, with monotone partial-cost pruning. All cost
//     increments are non-negative, so a partial assignment whose cost already
//     meets the incumbent can be pruned without losing optimality. Practical
//     up to n ≈ 16.
//   - Anneal: multi-start simulated annealing over partitions with the
//     prescribed cluster sizes (SizeOf), using pairwise swap moves followed
//     by steepest-descent polishing. Used for the paper's n = 64, m = 4
//     instances and validated against BranchAndBound on small instances.
//
// Anneal, its polish and KLRefine all read one Kernighan-Lin gain table
// (gain.go): per core v and cluster j, the traffic G[v][j] that v exchanges
// with cluster j. A swap's cost delta is then O(1) instead of an O(n) scan
// of two traffic rows, and an applied swap updates the table in O(n).
package qp

import (
	"fmt"
	"math"
	"math/rand"
)

// Problem is one instance of the clustering program. Comm and Util are
// expected to be max-normalized (the paper normalizes f and u by their
// maxima); TargetMeans are the ū_j values, ordered ascending.
type Problem struct {
	N, M        int
	Comm        [][]float64 // Comm[i][p] = normalized traffic core i -> core p
	Util        []float64   // normalized per-core utilization
	TargetMeans []float64   // ū_j, one per cluster, ascending
	Wc, Wu      float64     // ω_c, ω_u
	// Sizes optionally prescribes an unequal partition: cluster j must hold
	// exactly Sizes[j] cores. Nil means the classic equal split of N/M
	// (which then must divide evenly).
	Sizes []int
}

// Validate checks the structural invariants of the instance.
func (p *Problem) Validate() error {
	if p.N <= 0 || p.M <= 0 {
		return fmt.Errorf("qp: need positive n and m, got n=%d m=%d", p.N, p.M)
	}
	if p.Sizes != nil {
		if len(p.Sizes) != p.M {
			return fmt.Errorf("qp: %d cluster sizes for m=%d", len(p.Sizes), p.M)
		}
		total := 0
		for j, s := range p.Sizes {
			if s <= 0 {
				return fmt.Errorf("qp: cluster %d has non-positive size %d", j, s)
			}
			total += s
		}
		if total != p.N {
			return fmt.Errorf("qp: cluster sizes sum to %d for n=%d", total, p.N)
		}
	} else if p.N%p.M != 0 {
		return fmt.Errorf("qp: n=%d not divisible by m=%d", p.N, p.M)
	}
	if len(p.Util) != p.N {
		return fmt.Errorf("qp: %d utilizations for n=%d", len(p.Util), p.N)
	}
	if len(p.Comm) != p.N {
		return fmt.Errorf("qp: %d traffic rows for n=%d", len(p.Comm), p.N)
	}
	for i, row := range p.Comm {
		if len(row) != p.N {
			return fmt.Errorf("qp: traffic row %d has %d cols for n=%d", i, len(row), p.N)
		}
	}
	if len(p.TargetMeans) != p.M {
		return fmt.Errorf("qp: %d target means for m=%d", len(p.TargetMeans), p.M)
	}
	if p.Wc < 0 || p.Wu < 0 {
		return fmt.Errorf("qp: negative weights wc=%v wu=%v", p.Wc, p.Wu)
	}
	return nil
}

// SizeOf returns the mandated size of cluster j: Sizes[j] under an unequal
// prescription, n/m in the classic equal split.
func (p *Problem) SizeOf(j int) int {
	if p.Sizes != nil {
		return p.Sizes[j]
	}
	return p.N / p.M
}

// PhiComm implements Eq. 2: the normalized inter-cluster communication cost
// function.
func (p *Problem) PhiComm(j, q int) float64 {
	if j == q {
		return 1 / math.Sqrt(float64(p.M))
	}
	return 1
}

// Cost evaluates Eq. 1 for a complete assignment (assign[i] = cluster of
// core i). It is the reference implementation the incremental deltas are
// tested against.
func (p *Problem) Cost(assign []int) float64 {
	if len(assign) != p.N {
		panic(fmt.Sprintf("qp: assignment length %d for n=%d", len(assign), p.N))
	}
	var comm, util float64
	for i := 0; i < p.N; i++ {
		for q := 0; q < p.N; q++ {
			if f := p.Comm[i][q]; f != 0 {
				comm += f * p.PhiComm(assign[i], assign[q])
			}
		}
		d := p.Util[i] - p.TargetMeans[assign[i]]
		util += d * d
	}
	return p.Wc*comm + p.Wu*util
}

// utilCost returns the utilization cost of putting core i in cluster j.
func (p *Problem) utilCost(i, j int) float64 {
	d := p.Util[i] - p.TargetMeans[j]
	return p.Wu * d * d
}

// Solution is the result of a solver run.
type Solution struct {
	Assign []int
	Cost   float64
	// Exact reports whether the solution is provably optimal.
	Exact bool
}

// BranchAndBound solves the instance exactly. maxNodes caps the search to
// guard against accidental use on large instances; it returns an error when
// the cap is exceeded. Cluster capacities are enforced during the search and
// partial costs (which only grow) are pruned against the incumbent.
func BranchAndBound(p *Problem, maxNodes int) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	assign := make([]int, p.N)
	for i := range assign {
		assign[i] = -1
	}
	counts := make([]int, p.M)
	best := Solution{Cost: math.Inf(1)}
	nodes := 0

	// greedy incumbent to enable early pruning: quartile assignment
	greedy := GreedySeed(p)
	best.Assign = append([]int(nil), greedy...)
	best.Cost = p.Cost(greedy)

	var rec func(i int, partial float64) error
	rec = func(i int, partial float64) error {
		nodes++
		if nodes > maxNodes {
			return fmt.Errorf("qp: branch-and-bound exceeded %d nodes (n=%d too large; use Anneal)", maxNodes, p.N)
		}
		if partial >= best.Cost {
			return nil
		}
		if i == p.N {
			best.Cost = partial
			best.Assign = append(best.Assign[:0], assign...)
			return nil
		}
		for j := 0; j < p.M; j++ {
			if counts[j] == p.SizeOf(j) {
				continue
			}
			inc := p.utilCost(i, j)
			// communication with already-assigned cores (both directions)
			for c := 0; c < i; c++ {
				f := p.Comm[i][c] + p.Comm[c][i]
				if f != 0 {
					inc += p.Wc * f * p.PhiComm(j, assign[c])
				}
			}
			if partial+inc >= best.Cost {
				continue
			}
			assign[i] = j
			counts[j]++
			if err := rec(i+1, partial+inc); err != nil {
				return err
			}
			counts[j]--
			assign[i] = -1
		}
		return nil
	}
	if err := rec(0, 0); err != nil {
		return Solution{}, err
	}
	best.Exact = true
	return best, nil
}

// GreedySeed returns the quartile assignment: cores sorted by utilization
// are dealt into clusters in target-mean order, filling each cluster to
// capacity. This minimizes the utilization term alone and is the starting
// point for the annealer (and the incumbent for branch-and-bound).
func GreedySeed(p *Problem) []int {
	idx := make([]int, p.N)
	for i := range idx {
		idx[i] = i
	}
	// insertion-stable sort by ascending utilization
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && p.Util[idx[j]] < p.Util[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	assign := make([]int, p.N)
	j, left := 0, p.SizeOf(0)
	for _, core := range idx {
		assign[core] = j
		if left--; left == 0 && j+1 < p.M {
			j++
			left = p.SizeOf(j)
		}
	}
	return assign
}

// AnnealOptions controls the simulated-annealing solver.
type AnnealOptions struct {
	Seed      int64   // rng seed; runs are deterministic for a given seed
	Restarts  int     // independent annealing restarts (best kept)
	Sweeps    int     // annealing sweeps per restart (n moves per sweep)
	StartTemp float64 // initial temperature, in cost units
	EndTemp   float64 // final temperature
}

// DefaultAnnealOptions returns settings tuned for the paper's n=64, m=4
// instances: a few independent restarts, geometric cooling and a polish
// pass, completing in tens of milliseconds.
func DefaultAnnealOptions() AnnealOptions {
	return AnnealOptions{Seed: 1, Restarts: 4, Sweeps: 400, StartTemp: 1.0, EndTemp: 1e-4}
}

// Anneal solves the instance heuristically. The result is always a feasible
// partition honoring the cluster sizes (SizeOf); Exact is false even if the
// optimum was found.
func Anneal(p *Problem, opts AnnealOptions) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	if opts.Restarts <= 0 || opts.Sweeps <= 0 {
		return Solution{}, fmt.Errorf("qp: anneal needs positive restarts and sweeps")
	}
	// NaN fails every comparison, so this also rejects NaN temperatures.
	if !(opts.EndTemp > 0 && opts.EndTemp <= opts.StartTemp && !math.IsInf(opts.StartTemp, 1)) {
		return Solution{}, fmt.Errorf("qp: anneal needs finite temperatures with 0 < end <= start, got start=%v end=%v",
			opts.StartTemp, opts.EndTemp)
	}
	sol, _ := anneal(p, opts)
	return sol, nil
}

// anneal is Anneal on validated input. Every restart rebuilds one gain
// table, so each swap proposal costs O(1) and each accepted swap O(n). The
// table is returned tracking the last restart's polished assignment.
func anneal(p *Problem, opts AnnealOptions) (Solution, *gainTable) {
	rng := rand.New(rand.NewSource(opts.Seed))
	best := Solution{Cost: math.Inf(1)}
	gt := newGainTable(p)
	assign := gt.assign
	coolRate := math.Pow(opts.EndTemp/opts.StartTemp, 1/float64(opts.Sweeps))
	for r := 0; r < opts.Restarts; r++ {
		start := GreedySeed(p)
		if r > 0 {
			// diversify later restarts with random swaps
			for k := 0; k < p.N; k++ {
				a, b := rng.Intn(p.N), rng.Intn(p.N)
				start[a], start[b] = start[b], start[a]
			}
		}
		gt.reset(start)
		cost := p.Cost(start)
		temp := opts.StartTemp
		for sweep := 0; sweep < opts.Sweeps; sweep++ {
			for move := 0; move < p.N; move++ {
				a := rng.Intn(p.N)
				b := rng.Intn(p.N)
				if assign[a] == assign[b] {
					continue
				}
				d := gt.delta(a, b)
				if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
					gt.swap(a, b)
					cost += d
				}
			}
			temp *= coolRate
		}
		cost = polish(gt, cost)
		if cost < best.Cost {
			best.Cost = cost
			best.Assign = append(best.Assign[:0], assign...)
		}
	}
	return best, gt
}

// polish runs steepest-descent pairwise swaps on the table's assignment
// until no improving swap exists, returning the final cost. Each step
// scans all pairs in O(n²).
func polish(gt *gainTable, cost float64) float64 {
	assign := gt.assign
	for {
		bestDelta := -1e-12
		bestA, bestB := -1, -1
		for a := range assign {
			for b := a + 1; b < len(assign); b++ {
				if assign[a] == assign[b] {
					continue
				}
				if d := gt.delta(a, b); d < bestDelta {
					bestDelta, bestA, bestB = d, a, b
				}
			}
		}
		if bestA < 0 {
			return cost
		}
		gt.swap(bestA, bestB)
		cost += bestDelta
	}
}

// Solve picks the right solver for the instance size: exact branch-and-bound
// for small instances (n <= 14), annealing otherwise. This mirrors how the
// repository substitutes Gurobi (see DESIGN.md).
func Solve(p *Problem, opts AnnealOptions) (Solution, error) {
	if p.N <= 14 {
		sol, err := BranchAndBound(p, 50_000_000)
		if err == nil {
			return sol, nil
		}
	}
	return Anneal(p, opts)
}
