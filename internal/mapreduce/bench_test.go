package mapreduce

import (
	"fmt"
	"strings"
	"testing"
)

// benchLines builds a corpus with a large unique-key population so the
// reduce phase (partitioning + merging) dominates over the map phase.
func benchLines(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("u%d u%d u%d shared", i, i%1000, i%97)
	}
	return lines
}

// BenchmarkReduceStringKeys exercises the full Run with string keys and the
// default hash: before the single-pass sharding fix every reducer re-hashed
// every key of every local map through fmt.Sprintf.
func BenchmarkReduceStringKeys(b *testing.B) {
	lines := benchLines(20000)
	job := wordCountJob(8)
	job.KeyLess = nil // isolate map+reduce; merge-sort is not under test
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(job, lines); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduceIntKeys is the same shape with integer keys, where the
// default hash formerly allocated a decimal string per call.
func BenchmarkReduceIntKeys(b *testing.B) {
	data := make([]int, 20000)
	for i := range data {
		data[i] = i
	}
	job := Job[int, int, int]{
		Name:    "ihist",
		Map:     func(x int, emit func(int, int)) { emit(x, 1); emit(x%1024, 1) },
		Combine: func(a, b int) int { return a + b },
		Workers: 8,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(job, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunHistogram is hit-heavy on the array container: 200k
// records emit three of 768 dense int keys each, so nearly every emit
// combines in place. Its allocs/op (the engine's own, per run, not per
// record) is gated in testdata/bench-gates.json.
func BenchmarkRunHistogram(b *testing.B) {
	data := make([]int, 200000)
	for i := range data {
		data[i] = (i * 2654435761) >> 7
	}
	job := Job[int, int, int]{
		Name: "hist",
		Map: func(x int, emit func(int, int)) {
			emit(x&255, 1)
			emit(256+(x>>8)&255, 1)
			emit(512+(x>>16)&255, 1)
		},
		Combine: func(a, b int) int { return a + b },
		Workers: 4,
		KeyLess: func(a, b int) bool { return a < b },
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(job, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunWordCount is hit-heavy on the hash container: 20k lines of
// eight words from a 64-word vocabulary. Map splits without allocating,
// so the gated allocs/op is the engine's own.
func BenchmarkRunWordCount(b *testing.B) {
	lines := make([]string, 20000)
	for i := range lines {
		var sb strings.Builder
		for j := 0; j < 8; j++ {
			fmt.Fprintf(&sb, "word%d ", (i*31+j*7)%64)
		}
		lines[i] = sb.String()
	}
	job := Job[string, string, int]{
		Name: "wc",
		Map: func(line string, emit func(string, int)) {
			for line != "" {
				w, rest, _ := strings.Cut(line, " ")
				if w != "" {
					emit(w, 1)
				}
				line = rest
			}
		},
		Combine: func(a, b int) int { return a + b },
		Workers: 4,
		KeyLess: func(a, b string) bool { return a < b },
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(job, lines); err != nil {
			b.Fatal(err)
		}
	}
}
