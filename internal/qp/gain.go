package qp

import "math"

// gainTable is the Kernighan-Lin gain bookkeeping every swap move reads.
// It tracks one assignment together with the symmetric traffic
// F = Comm + Commᵀ (zero diagonal), built once per problem, and the
// per-core, per-cluster traffic sums
//
//	G[v][j] = Σ_{c≠v, assign[c]=j} F[v][c].
//
// With G a swap delta is O(1) and an applied swap updates G in O(n).
type gainTable struct {
	p      *Problem
	n, m   int
	assign []int     // the tracked assignment
	f      []float64 // f[v*n+c] = F[v][c]
	g      []float64 // g[v*m+j] = G[v][j]
	wg     float64   // Wc·(1−1/√m): the cost of moving one unit of traffic inter-cluster
}

func newGainTable(p *Problem) *gainTable {
	n := p.N
	f := make([]float64, n*n)
	for v := 0; v < n; v++ {
		for c := 0; c < n; c++ {
			if c != v {
				f[v*n+c] = p.Comm[v][c] + p.Comm[c][v]
			}
		}
	}
	return &gainTable{
		p: p, n: n, m: p.M, f: f,
		assign: make([]int, n),
		g:      make([]float64, n*p.M),
		wg:     p.Wc * (1 - 1/math.Sqrt(float64(p.M))),
	}
}

// reset starts tracking a copy of assign and rebuilds G from scratch. O(n²).
func (t *gainTable) reset(assign []int) {
	copy(t.assign, assign)
	clear(t.g)
	for v := 0; v < t.n; v++ {
		gv := t.g[v*t.m : (v+1)*t.m]
		for c, fc := range t.f[v*t.n : (v+1)*t.n] {
			gv[assign[c]] += fc
		}
	}
}

// delta returns the change in Cost caused by swapping cores a and b, which
// must sit in distinct clusters. O(1): the pair itself stays inter-cluster,
// every other peer c of a flips from intra to inter (c in ja) or back (c in
// jb), and likewise for b.
func (t *gainTable) delta(a, b int) float64 {
	ja, jb := t.assign[a], t.assign[b]
	p := t.p
	ga, gb := t.g[a*t.m:(a+1)*t.m], t.g[b*t.m:(b+1)*t.m]
	return p.utilCost(a, jb) - p.utilCost(a, ja) +
		p.utilCost(b, ja) - p.utilCost(b, jb) +
		t.wg*(ga[ja]-ga[jb]+gb[jb]-gb[ja]+2*t.f[a*t.n+b])
}

// swap exchanges the clusters of a and b and updates G. O(n).
func (t *gainTable) swap(a, b int) {
	ja, jb := t.assign[a], t.assign[b]
	t.assign[a], t.assign[b] = jb, ja
	// F is symmetric, so F[v][a] and F[v][b] are read along rows a and b.
	fa, fb := t.f[a*t.n:(a+1)*t.n], t.f[b*t.n:(b+1)*t.n]
	g := t.g
	for v, off := 0, 0; v < t.n; v, off = v+1, off+t.m {
		d := fb[v] - fa[v]
		g[off+ja] += d
		g[off+jb] -= d
	}
}
