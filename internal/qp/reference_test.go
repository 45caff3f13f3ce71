package qp

import (
	"math"
	"math/rand"
)

// This file keeps the straightforward forms of the solvers as test-only
// references: an O(n) swap delta that scans two traffic rows, and the
// annealer, polish and KL pass built on it. The gain-table solvers must
// reproduce their assignments (gain_test.go, paper_test.go).

// swapDelta returns the change in Cost caused by swapping cores a and b
// between their (distinct) clusters under assignment assign. O(n).
func (p *Problem) swapDelta(assign []int, a, b int) float64 {
	ja, jb := assign[a], assign[b]
	if ja == jb {
		return 0
	}
	delta := p.utilCost(a, jb) - p.utilCost(a, ja) +
		p.utilCost(b, ja) - p.utilCost(b, jb)
	intra := p.PhiComm(0, 0) // 1/sqrt(m)
	gain := 1 - intra        // per-unit-traffic saving of moving a pair intra-cluster
	// Communication terms touching a or b change only when the peer's
	// cluster relationship flips. After the swap a lives in jb and b in ja.
	for c := 0; c < p.N; c++ {
		if c == a || c == b {
			continue
		}
		jc := assign[c]
		fa := p.Comm[a][c] + p.Comm[c][a]
		if fa != 0 {
			if jc == ja {
				delta += p.Wc * fa * gain // was intra, becomes inter
			} else if jc == jb {
				delta -= p.Wc * fa * gain // was inter, becomes intra
			}
		}
		fb := p.Comm[b][c] + p.Comm[c][b]
		if fb != 0 {
			if jc == jb {
				delta += p.Wc * fb * gain
			} else if jc == ja {
				delta -= p.Wc * fb * gain
			}
		}
	}
	// The a<->b pair itself keeps the same relationship (inter-cluster
	// before and after), so it contributes no delta.
	return delta
}

// refAnneal is Anneal with every delta from swapDelta.
func refAnneal(p *Problem, opts AnnealOptions) Solution {
	rng := rand.New(rand.NewSource(opts.Seed))
	best := Solution{Cost: math.Inf(1)}
	for r := 0; r < opts.Restarts; r++ {
		assign := GreedySeed(p)
		if r > 0 {
			for k := 0; k < p.N; k++ {
				a, b := rng.Intn(p.N), rng.Intn(p.N)
				assign[a], assign[b] = assign[b], assign[a]
			}
		}
		cost := p.Cost(assign)
		temp := opts.StartTemp
		coolRate := math.Pow(opts.EndTemp/opts.StartTemp, 1/float64(opts.Sweeps))
		for sweep := 0; sweep < opts.Sweeps; sweep++ {
			for move := 0; move < p.N; move++ {
				a := rng.Intn(p.N)
				b := rng.Intn(p.N)
				if assign[a] == assign[b] {
					continue
				}
				d := p.swapDelta(assign, a, b)
				if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
					assign[a], assign[b] = assign[b], assign[a]
					cost += d
				}
			}
			temp *= coolRate
		}
		cost = refPolish(p, assign, cost)
		if cost < best.Cost {
			best.Cost = cost
			best.Assign = append([]int(nil), assign...)
		}
	}
	return best
}

func refPolish(p *Problem, assign []int, cost float64) float64 {
	for {
		bestDelta := -1e-12
		bestA, bestB := -1, -1
		for a := 0; a < p.N; a++ {
			for b := a + 1; b < p.N; b++ {
				if assign[a] == assign[b] {
					continue
				}
				if d := p.swapDelta(assign, a, b); d < bestDelta {
					bestDelta, bestA, bestB = d, a, b
				}
			}
		}
		if bestA < 0 {
			return cost
		}
		assign[bestA], assign[bestB] = assign[bestB], assign[bestA]
		cost += bestDelta
	}
}

// refKLRefine is KLRefine with every delta from swapDelta.
func refKLRefine(p *Problem, assign []int) ([]int, float64) {
	cur := append([]int(nil), assign...)
	curCost := p.Cost(cur)
	for pass := 0; pass < p.N; pass++ {
		improved, newCost := refKLPass(p, cur, curCost)
		if !improved {
			break
		}
		curCost = newCost
	}
	return cur, curCost
}

func refKLPass(p *Problem, cur []int, curCost float64) (bool, float64) {
	locked := make([]bool, p.N)
	type step struct {
		a, b  int
		delta float64
	}
	var seq []step
	work := append([]int(nil), cur...)
	for len(seq) < p.N/2 {
		bestA, bestB := -1, -1
		bestDelta := 0.0
		first := true
		for a := 0; a < p.N; a++ {
			if locked[a] {
				continue
			}
			for b := a + 1; b < p.N; b++ {
				if locked[b] || work[a] == work[b] {
					continue
				}
				d := p.swapDelta(work, a, b)
				if first || d < bestDelta {
					bestA, bestB, bestDelta = a, b, d
					first = false
				}
			}
		}
		if bestA < 0 {
			break
		}
		work[bestA], work[bestB] = work[bestB], work[bestA]
		locked[bestA], locked[bestB] = true, true
		seq = append(seq, step{bestA, bestB, bestDelta})
	}
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
	for _, st := range seq[:bestPrefix] {
		cur[st.a], cur[st.b] = cur[st.b], cur[st.a]
	}
	return true, bestCost
}
