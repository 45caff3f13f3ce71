package timeline

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func TestSamplerSumAndMean(t *testing.T) {
	s := NewSampler(Meta{Name: "s"}, 10, Sum)
	s.Add(0, 1)
	s.Add(5, 2)
	s.Add(10, 4)
	s.Add(29, 8)
	if got := s.Values(); !reflect.DeepEqual(got, []float64{3, 4, 8}) {
		t.Fatalf("sum values = %v", got)
	}
	m := NewSampler(Meta{Name: "m"}, 10, Mean)
	m.Add(0, 2)
	m.Add(9, 4)
	m.Add(10, 10)
	if got := m.Values(); !reflect.DeepEqual(got, []float64{3, 10}) {
		t.Fatalf("mean values = %v", got)
	}
}

func TestSamplerRescales(t *testing.T) {
	s := NewSampler(Meta{Name: "s"}, 1, Sum)
	n := int64(DefaultMaxBins * 4)
	for i := int64(0); i < n; i++ {
		s.Add(i, 1)
	}
	if w := s.Window(); w != 4 {
		t.Fatalf("window = %d, want 4", w)
	}
	vals := s.Values()
	if len(vals) > DefaultMaxBins {
		t.Fatalf("len(values) = %d exceeds bound %d", len(vals), DefaultMaxBins)
	}
	var total float64
	for _, v := range vals {
		total += v
	}
	if total != float64(n) {
		t.Fatalf("rescale lost mass: total = %v, want %d", total, n)
	}
}

func TestSamplerRescaleIsExactRebinning(t *testing.T) {
	// The rescaled series must equal the series built directly at the
	// final window width.
	rng := rand.New(rand.NewSource(7))
	type sample struct {
		idx int64
		v   float64
	}
	var samples []sample
	for i := 0; i < 5000; i++ {
		samples = append(samples, sample{rng.Int63n(DefaultMaxBins * 8), float64(rng.Intn(100))})
	}
	a := NewSampler(Meta{Name: "a"}, 1, Sum)
	for _, s := range samples {
		a.Add(s.idx, s.v)
	}
	b := NewSampler(Meta{Name: "b"}, a.Window(), Sum)
	for _, s := range samples {
		b.Add(s.idx, s.v)
	}
	av, bv := a.Values(), b.Values()
	// Trailing empty bins may differ in count; compare the common prefix
	// after verifying equal length up to trailing zeros.
	for len(av) < len(bv) {
		av = append(av, 0)
	}
	for len(bv) < len(av) {
		bv = append(bv, 0)
	}
	if !reflect.DeepEqual(av, bv) {
		t.Fatalf("rescaled series differs from direct binning")
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram(Meta{Name: "h"})
	for v := int64(0); v < histExact; v++ {
		if b := bucketOf(v); b != int(v) {
			t.Fatalf("bucketOf(%d) = %d", v, b)
		}
		lo, hi := bucketBounds(int(v))
		if lo != v || hi != v {
			t.Fatalf("bounds(%d) = [%d,%d]", v, lo, hi)
		}
	}
	h.Observe(3)
	h.Observe(3)
	h.Observe(7)
	if q := h.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %d, want 3", q)
	}
	if q := h.Quantile(1); q != 7 {
		t.Fatalf("p100 = %d, want 7", q)
	}
}

func TestHistogramBucketCoversValue(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		v := rng.Int63() >> uint(rng.Intn(62))
		b := bucketOf(v)
		lo, hi := bucketBounds(b)
		if v < lo || v > hi {
			t.Fatalf("value %d outside bucket %d [%d,%d]", v, b, lo, hi)
		}
		// Relative bucket error bound: width/lo <= 1/8 for v >= 16.
		if v >= histExact && float64(hi-lo) > float64(lo)/8 {
			t.Fatalf("bucket %d [%d,%d] too wide", b, lo, hi)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram(Meta{Name: "h"})
	var exact []int64
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 500)
		exact = append(exact, v)
		h.Observe(v)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		want := exact[int(p*float64(len(exact)))]
		got := h.Quantile(p)
		if want >= histExact {
			rel := float64(got-want) / float64(want)
			if rel < -0.005 || rel > 0.13 {
				t.Fatalf("p%.0f: got %d, exact %d (rel %.3f)", p*100, got, want, rel)
			}
		} else if got != want {
			t.Fatalf("p%.0f: got %d, exact %d", p*100, got, want)
		}
	}
}

func TestTrackDedupAndOverwrite(t *testing.T) {
	tr := NewTrack(Meta{Name: "t"})
	tr.Set(0, "idle")
	tr.Set(10, "map")
	tr.Set(20, "map") // dedup
	tr.Set(30, "reduce")
	tr.Set(30, "merge") // overwrite at same index
	want := []StatePoint{{0, "idle"}, {10, "map"}, {30, "merge"}}
	if got := tr.Points(); !reflect.DeepEqual(got, want) {
		t.Fatalf("points = %v, want %v", got, want)
	}
	// Overwrite collapsing back into the previous state removes the point.
	tr2 := NewTrack(Meta{Name: "t2"})
	tr2.Set(0, "a")
	tr2.Set(5, "b")
	tr2.Set(5, "a")
	if got := tr2.Points(); !reflect.DeepEqual(got, []StatePoint{{0, "a"}}) {
		t.Fatalf("points = %v, want [{0 a}]", got)
	}
}

func TestNilReceiversNoOp(t *testing.T) {
	var s *Sampler
	var h *Histogram
	var tr *Track
	var c *Collector
	s.Add(1, 1)
	h.Observe(1)
	tr.Set(1, "x")
	if s.Values() != nil || h.Data() != nil || tr.Points() != nil {
		t.Fatal("nil primitives returned data")
	}
	if c.Sampler(Meta{Name: "x"}, 1, Sum) != nil || c.Histogram(Meta{Name: "x"}) != nil || c.Track(Meta{Name: "x"}) != nil {
		t.Fatal("nil collector returned primitives")
	}
	c.AddSeries(Series{})
	if set := c.Export("t"); set == nil || set.Schema != SchemaVersion || len(set.Series) != 0 {
		t.Fatalf("nil collector export = %+v", set)
	}
}

func TestDisabledPathZeroAlloc(t *testing.T) {
	Install(nil)
	var sink *Sampler
	allocs := testing.AllocsPerRun(100, func() {
		c := Active()
		s := c.Sampler(Meta{Name: "x"}, 1, Sum)
		s.Add(5, 1)
		c.Histogram(Meta{Name: "h"}).Observe(9)
		c.Track(Meta{Name: "t"}).Set(3, "map")
		sink = s
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op", allocs)
	}
}

func TestCollectorExportSortedAndIdempotent(t *testing.T) {
	c := NewCollector()
	c.Sampler(Meta{Name: "b/s"}, 10, Sum).Add(1, 2)
	c.Track(Meta{Name: "a/t"}).Set(0, "x")
	c.Histogram(Meta{Name: "c/h"}).Observe(4)
	c.AddSeries(Series{Meta: Meta{Name: "0/post"}, Kind: KindTrack})
	c.AddSeries(Series{Meta: Meta{Name: "0/post"}, Kind: KindTrack, Points: []StatePoint{{1, "y"}}})
	set := c.Export("test")
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(set.Series))
	for i, sr := range set.Series {
		names[i] = sr.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("series not sorted: %v", names)
	}
	if got := set.Lookup("0/post"); got == nil || len(got.Points) != 1 {
		t.Fatalf("AddSeries replace failed: %+v", got)
	}
	if got := len(set.Prefix("c/")); got != 1 {
		t.Fatalf("Prefix = %d series", got)
	}
}

func TestWriteDirRoundTripAndDeterminism(t *testing.T) {
	build := func() *Collector {
		c := NewCollector()
		s := c.Sampler(Meta{Name: "link/0-1", IndexUnit: "cycles", Unit: "flits"}, 100, Sum)
		for i := int64(0); i < 1000; i += 7 {
			s.Add(i, float64(i%13))
		}
		h := c.Histogram(Meta{Name: "latency", Unit: "cycles"})
		for i := int64(0); i < 500; i++ {
			h.Observe(i * i % 997)
		}
		c.Track(Meta{Name: "worker/0", IndexUnit: "records"}).Set(0, "map")
		return c
	}
	dir1, dir2 := t.TempDir(), t.TempDir()
	if err := WriteDir(dir1, build().Export("test")); err != nil {
		t.Fatal(err)
	}
	if err := WriteDir(dir2, build().Export("test")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{JSONFile, SamplersCSV, TracksCSV, HistogramsCSV} {
		a, err := os.ReadFile(filepath.Join(dir1, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir2, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs across identical runs", name)
		}
		if len(a) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	set, err := ReadSetFile(filepath.Join(dir1, JSONFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if set.Schema != SchemaVersion || len(set.Series) != 3 {
		t.Fatalf("round-trip set = schema %d, %d series", set.Schema, len(set.Series))
	}
	// JSON must round-trip to the identical document.
	blob1, _ := json.Marshal(set)
	reload, _ := ReadSetFile(filepath.Join(dir1, JSONFile))
	blob2, _ := json.Marshal(reload)
	if !bytes.Equal(blob1, blob2) {
		t.Fatal("JSON round-trip not stable")
	}
}

func TestValidateRejectsBadSets(t *testing.T) {
	cases := []Set{
		{Series: []Series{{Meta: Meta{Name: ""}, Kind: KindTrack}}},
		{Series: []Series{{Meta: Meta{Name: "a"}, Kind: KindTrack}, {Meta: Meta{Name: "a"}, Kind: KindTrack}}},
		{Series: []Series{{Meta: Meta{Name: "a"}, Kind: "bogus"}}},
		{Series: []Series{{Meta: Meta{Name: "a"}, Kind: KindSampler, Window: 0}}},
		{Series: []Series{{Meta: Meta{Name: "a"}, Kind: KindHistogram}}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted bad set", i)
		}
	}
}

func BenchmarkDisabledSamplerAdd(b *testing.B) {
	Install(nil)
	s := Active().Sampler(Meta{Name: "x"}, 1, Sum)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(int64(i), 1)
	}
}

func BenchmarkEnabledHistogramObserve(b *testing.B) {
	h := NewHistogram(Meta{Name: "x"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 0xfffff))
	}
}
