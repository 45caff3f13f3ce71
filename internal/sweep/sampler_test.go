package sweep

import (
	"math/rand"
	"testing"
)

// pick is the sequential sampler the batched resolve replaced: one
// early-exiting scan of the flattened matrix per draw.
func (s *sampler) pick(rng *rand.Rand) (src, dst int) {
	r := rng.Float64() * s.total
	for k, f := range s.flat {
		r -= f
		if r <= 0 {
			return k / s.n, k % s.n
		}
	}
	return s.n - 1, s.n - 1
}

// TestResolveMatchesPick: resolving a batch of draws lands every draw on
// the pair the sequential scan picks, over random matrices with zero
// rows and entries, 1e-9 entries among unit ones, and totals above the
// matrix sum so some draws run off the end into the (n-1, n-1) fallback.
func TestResolveMatchesPick(t *testing.T) {
	gen := rand.New(rand.NewSource(3))
	fallbacks := 0
	for c := 0; c < 200; c++ {
		n := 1 + gen.Intn(12)
		m := make([][]float64, n)
		var sum float64
		for i := range m {
			m[i] = make([]float64, n)
			if gen.Intn(5) == 0 {
				continue
			}
			for j := range m[i] {
				switch gen.Intn(4) {
				case 1:
					m[i][j] = 1e-9
				case 2:
					m[i][j] = gen.Float64()
				case 3:
					m[i][j] = float64(1 + gen.Intn(3))
				}
				sum += m[i][j]
			}
		}
		total := sum
		switch {
		case sum == 0:
			total = 1
		case gen.Intn(3) == 0:
			total = sum * (1 + gen.Float64())
		}
		s := newSampler(m, total)
		seed := gen.Int63()
		seq := rand.New(rand.NewSource(seed))
		batch := rand.New(rand.NewSource(seed))
		draws := make([]float64, 1+gen.Intn(300))
		for i := range draws {
			draws[i] = s.draw(batch)
		}
		for i, k := range s.resolve(draws) {
			src, dst := s.pick(seq)
			if k/n != src || k%n != dst {
				t.Fatalf("case %d draw %d (r=%v): resolve lands on (%d,%d), pick on (%d,%d)", c, i, draws[i], k/n, k%n, src, dst)
			}
			if k == n*n-1 && m[n-1][n-1] == 0 {
				fallbacks++
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no draw ran off the end of its matrix")
	}
	// A draw of exactly zero stops on the first entry, zero or not, as
	// the scan's first subtraction leaves it at or below zero.
	s := newSampler([][]float64{{0, 1}, {1, 0}}, 2)
	if got := s.resolve([]float64{0, 2, 1}); got[0] != 0 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("resolve(0, 2, 1) = %v, want [0 2 1]", got)
	}
}

// BenchmarkResolve resolves the DES probe's 1500 draws on a dense 12x12
// mapped traffic matrix.
func BenchmarkResolve(b *testing.B) {
	gen := rand.New(rand.NewSource(1))
	n := 144
	m := make([][]float64, n)
	var total float64
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = gen.Float64()
				total += m[i][j]
			}
		}
	}
	s := newSampler(m, total)
	draws := make([]float64, probePackets)
	for i := range draws {
		draws[i] = s.draw(gen)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.resolve(draws)
	}
}
