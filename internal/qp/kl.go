package qp

import "fmt"

// KLRefine improves a feasible partition (one honoring SizeOf) with a
// Kernighan-Lin style pass: repeatedly build a sequence of best-gain swaps
// with both endpoints locked after each swap, keep the best prefix of the
// sequence, and iterate until a full pass yields no improvement. Unlike the
// plain steepest-descent polish inside Anneal, KL can escape shallow local
// optima by accepting temporarily-worsening swaps inside a pass. Swaps only
// exchange cores, so every cluster keeps its size.
//
// The input assignment is not modified; the refined assignment and its
// cost are returned.
func KLRefine(p *Problem, assign []int) ([]int, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	if len(assign) != p.N {
		return nil, 0, fmt.Errorf("qp: assignment length %d for n=%d", len(assign), p.N)
	}
	cur := append([]int(nil), assign...)
	curCost := p.Cost(cur)
	gt := newGainTable(p)
	for pass := 0; pass < p.N; pass++ {
		improved, newCost := klPass(gt, cur, curCost)
		if !improved {
			break
		}
		curCost = newCost
	}
	return cur, curCost, nil
}

// klPass performs one KL sequence on cur in place. It returns whether the
// pass improved the cost, and the new cost. gt is reset to cur and then
// tracks the pass's working copy, so each step scans all pairs in O(n²).
func klPass(gt *gainTable, cur []int, curCost float64) (bool, float64) {
	n := len(cur)
	locked := make([]bool, n)
	type step struct {
		a, b  int
		delta float64
	}
	var seq []step
	gt.reset(cur)
	work := gt.assign

	// Build a sequence of up to n/2 best-gain swaps, locking participants.
	for len(seq) < n/2 {
		bestA, bestB := -1, -1
		bestDelta := 0.0
		first := true
		for a := 0; a < n; a++ {
			if locked[a] {
				continue
			}
			for b := a + 1; b < n; b++ {
				if locked[b] || work[a] == work[b] {
					continue
				}
				d := gt.delta(a, b)
				if first || d < bestDelta {
					bestA, bestB, bestDelta = a, b, d
					first = false
				}
			}
		}
		if bestA < 0 {
			break
		}
		gt.swap(bestA, bestB)
		locked[bestA], locked[bestB] = true, true
		seq = append(seq, step{bestA, bestB, bestDelta})
	}

	// Find the best prefix of the sequence.
	bestPrefix := 0
	bestCost := curCost
	running := curCost
	for i, st := range seq {
		running += st.delta
		if running < bestCost-1e-12 {
			bestCost = running
			bestPrefix = i + 1
		}
	}
	if bestPrefix == 0 {
		return false, curCost
	}
	// Apply the winning prefix to cur.
	for _, st := range seq[:bestPrefix] {
		cur[st.a], cur[st.b] = cur[st.b], cur[st.a]
	}
	return true, bestCost
}

// SolveRefined runs the annealer and then a KL refinement pass — the
// highest-quality heuristic pipeline in this package.
func SolveRefined(p *Problem, opts AnnealOptions) (Solution, error) {
	sol, err := Anneal(p, opts)
	if err != nil {
		return Solution{}, err
	}
	assign, cost, err := KLRefine(p, sol.Assign)
	if err != nil {
		return Solution{}, err
	}
	return Solution{Assign: assign, Cost: cost}, nil
}
