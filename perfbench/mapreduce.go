package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"wivfi/internal/data"
	"wivfi/internal/mapreduce"
)

// mapreduce: one op is one mapreduce.Run with Workers = nproc over inputs
// set-up generates from the seed with internal/data. Ops alternate a
// histogram (int keys, few distinct keys, map-heavy: the hot class) and a
// word count (Zipf string keys, merge- and reduce-heavy: the cold class).
// Each output must equal a sequential reference computed in set-up.
type mrInst struct {
	e              *env
	text           []string
	pixels         []data.Pixel
	wcRef, histRef string
	first          int // seed-chosen job of op 0
}

// Input sizes: one op of either job takes about 85 ms, so a run of ~230
// ops puts its tail near p95, clear of single scheduling hiccups, and the
// two jobs cost about the same, so the median of their mix does not sit
// on the boundary between two separate classes.
const (
	mrLines        = 64000
	mrWordsPerLine = 16
	mrVocabulary   = 20000
	mrPixels       = 900000
)

func setupMapReduce(e *env) (instance, error) {
	m := &mrInst{
		e:      e,
		text:   data.Text(e.seed, mrLines, mrWordsPerLine, mrVocabulary),
		pixels: data.Pixels(e.seed, mrPixels),
		first:  int(e.seed & 1),
	}
	words := map[string]int{}
	for _, line := range m.text {
		for _, w := range strings.Fields(line) {
			words[w]++
		}
	}
	m.wcRef = pairsDigest(sortedPairs(words, func(a, b string) bool { return a < b }))
	hist := map[int]int{}
	for _, px := range m.pixels {
		hist[int(px.R)]++
		hist[256+int(px.G)]++
		hist[512+int(px.B)]++
	}
	m.histRef = pairsDigest(sortedPairs(hist, func(a, b int) bool { return a < b }))
	return m, nil
}

func sortedPairs[K comparable](m map[K]int, less func(a, b K) bool) []mapreduce.Pair[K, int] {
	out := make([]mapreduce.Pair[K, int], 0, len(m))
	for k, v := range m {
		out = append(out, mapreduce.Pair[K, int]{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i].Key, out[j].Key) })
	return out
}

func pairsDigest[K comparable](ps []mapreduce.Pair[K, int]) string {
	h := sha256.New()
	for _, p := range ps {
		fmt.Fprintf(h, "%v=%d\n", p.Key, p.Value)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (m *mrInst) wordCount() mapreduce.Job[string, string, int] {
	return mapreduce.Job[string, string, int]{
		Name: "wordcount",
		Map: func(line string, emit func(string, int)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		},
		Combine: func(a, b int) int { return a + b },
		Workers: m.e.procs,
		KeyLess: func(a, b string) bool { return a < b },
	}
}

func (m *mrInst) histogram() mapreduce.Job[data.Pixel, int, int] {
	return mapreduce.Job[data.Pixel, int, int]{
		Name: "histogram",
		Map: func(px data.Pixel, emit func(int, int)) {
			emit(int(px.R), 1)
			emit(256+int(px.G), 1)
			emit(512+int(px.B), 1)
		},
		Combine: func(a, b int) int { return a + b },
		Workers: m.e.procs,
		KeyLess: func(a, b int) bool { return a < b },
	}
}

// run executes op i, timing the engine call alone; stats receives the
// engine's own phase statistics.
func (m *mrInst) run(i int, stats *mapreduce.Stats) sample {
	var (
		smp  = sample{class: classHot}
		got  string
		want = m.histRef
		err  error
	)
	t0 := time.Now()
	if (i+m.first)%2 == 1 {
		smp.class, want = classCold, m.wcRef
		var res *mapreduce.Result[string, int]
		res, *stats, err = mapreduce.Run(m.wordCount(), m.text)
		smp.ms = msSince(t0)
		if err == nil {
			got = pairsDigest(res.Pairs)
		}
	} else {
		var res *mapreduce.Result[int, int]
		res, *stats, err = mapreduce.Run(m.histogram(), m.pixels)
		smp.ms = msSince(t0)
		if err == nil {
			got = pairsDigest(res.Pairs)
		}
	}
	smp.digest = got
	switch {
	case err != nil:
		smp.note = err.Error()
	case got != want:
		smp.note = fmt.Sprintf("mapreduce op %d (%s): output differs from the sequential reference", i, smp.class)
	default:
		smp.ok = true
	}
	return smp
}

func (m *mrInst) callers() int { return 1 }
func (m *mrInst) op(i int) sample {
	var st mapreduce.Stats
	return m.run(i, &st)
}
func (m *mrInst) serialOp(i int) sample  { return m.op(i) }
func (m *mrInst) setupSamples() []sample { return nil }
func (m *mrInst) close()                 {}

func (m *mrInst) replay(i int, t *tracer) (string, error) {
	var st mapreduce.Stats
	var smp sample
	_ = t.call("mapreduce.run", func() error { smp = m.run(i, &st); return nil })
	addMRStats(t, st)
	if !smp.ok {
		return "", fmt.Errorf("%s", smp.note)
	}
	return smp.digest, nil
}

func addMRStats(t *tracer, st mapreduce.Stats) {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	t.add("mapreduce.run", "map_ms", ms(st.MapTime))
	t.add("mapreduce.run", "reduce_ms", ms(st.ReduceTime))
	t.add("mapreduce.run", "merge_ms", ms(st.MergeTime))
	t.add("mapreduce.run", "steals", float64(st.Steals))
	t.add("mapreduce.run", "tasks", float64(st.Tasks))
	t.add("mapreduce.run", "records", float64(st.RecordsMapped))
}
