package qp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// gainCase draws one randomized instance for the table tests: n in
// [8, 256], m in [2, 8], and every other case an unequal split.
func gainCase(rng *rand.Rand, i int) *Problem {
	m := 2 + rng.Intn(7)
	if i%2 == 1 {
		return randomUnequalProblem(rng, randomSizes(rng, 8+rng.Intn(249), m))
	}
	n := m * (1 + rng.Intn(256/m))
	for n < 8 {
		n += m
	}
	return randomProblem(rng, n, m)
}

// randomFeasible returns a uniformly shuffled assignment with p's cluster
// sizes.
func randomFeasible(rng *rand.Rand, p *Problem) []int {
	assign := GreedySeed(p)
	rng.Shuffle(len(assign), func(a, b int) { assign[a], assign[b] = assign[b], assign[a] })
	return assign
}

// closeRel reports whether got is within a relative 1e-9 of want, measured
// against max(1, |want|) so that near-zero deltas are not held to an
// impossible standard.
func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// TestGainTableDeltaMatchesReference: the O(1) table delta agrees with the
// O(n) reference scan on random pairs, before and after a run of applied
// swaps (which exercises the O(n) update).
func TestGainTableDeltaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 24; i++ {
		p := gainCase(rng, i)
		gt := newGainTable(p)
		gt.reset(randomFeasible(rng, p))
		for k := 0; k < 400; k++ {
			a, b := rng.Intn(p.N), rng.Intn(p.N)
			if gt.assign[a] == gt.assign[b] {
				continue
			}
			got, want := gt.delta(a, b), p.swapDelta(gt.assign, a, b)
			if !closeRel(got, want) {
				t.Fatalf("case %d (n=%d m=%d sizes=%v) pair %d,%d: table delta %v, reference %v",
					i, p.N, p.M, p.Sizes, a, b, got, want)
			}
			if k%3 == 0 {
				gt.swap(a, b)
			}
		}
	}
}

// assertFreshGains checks that gt's incrementally updated G matches a
// rebuild from scratch for the assignment it tracks.
func assertFreshGains(t *testing.T, name string, gt *gainTable) {
	t.Helper()
	fresh := newGainTable(gt.p)
	fresh.reset(gt.assign)
	for k, want := range fresh.g {
		if !closeRel(gt.g[k], want) {
			t.Fatalf("%s: G[%d][%d] drifted to %v, rebuild gives %v", name, k/gt.m, k%gt.m, gt.g[k], want)
		}
	}
}

// TestGainTableNoDriftAfterAnneal: after a full anneal — hundreds of
// thousands of proposals and every accepted swap's O(n) update — the table
// still matches a fresh rebuild, so drift cannot steer a late decision.
func TestGainTableNoDriftAfterAnneal(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 6; i++ {
		p := gainCase(rng, i)
		_, gt := anneal(p, DefaultAnnealOptions())
		assertFreshGains(t, "anneal", gt)
	}
}

// TestSolversMatchReferenceRandom: on random equal and unequal instances,
// Anneal, KLRefine and SolveRefined return the reference solvers'
// assignments.
func TestSolversMatchReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	opts := DefaultAnnealOptions()
	opts.Sweeps = 100
	for i := 0; i < 8; i++ {
		var p *Problem
		if i%2 == 1 {
			p = randomUnequalProblem(rng, randomSizes(rng, 8+rng.Intn(57), 2+rng.Intn(4)))
		} else {
			p = randomProblem(rng, 16*(1+rng.Intn(4)), 4)
		}
		want := refAnneal(p, opts)
		got, err := Anneal(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Assign, want.Assign) {
			t.Fatalf("case %d (n=%d sizes=%v): Anneal %v, reference %v", i, p.N, p.Sizes, got.Assign, want.Assign)
		}
		start := randomFeasible(rng, p)
		wantKL, _ := refKLRefine(p, start)
		gotKL, _, err := KLRefine(p, start)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotKL, wantKL) {
			t.Fatalf("case %d (n=%d sizes=%v): KLRefine %v, reference %v", i, p.N, p.Sizes, gotKL, wantKL)
		}
		wantSR, _ := refKLRefine(p, want.Assign)
		gotSR, err := SolveRefined(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotSR.Assign, wantSR) {
			t.Fatalf("case %d (n=%d sizes=%v): SolveRefined %v, reference %v", i, p.N, p.Sizes, gotSR.Assign, wantSR)
		}
	}
}

// TestAnnealAllocsIndependentOfSweeps: the annealer allocates per problem
// and per restart, never per sweep or per proposal.
func TestAnnealAllocsIndependentOfSweeps(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(79)), 64, 4)
	allocs := func(sweeps int) float64 {
		opts := DefaultAnnealOptions()
		opts.Sweeps = sweeps
		return testing.AllocsPerRun(3, func() {
			if _, err := Anneal(p, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(5), allocs(200); many > few {
		t.Errorf("Anneal allocates %.0f times at 200 sweeps but %.0f at 5: allocation grows with Sweeps", many, few)
	}
}
