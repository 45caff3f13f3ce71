package mapreduce

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

// foldCase runs a job that emits (keys[7i mod len(keys)], i) for every record
// i, at Workers 1–8, and compares the output with a sequential fold of
// the same emits.
func foldCase[K comparable](t *testing.T, keys []K) {
	t.Helper()
	data := make([]int, 3*len(keys)+17)
	for i := range data {
		data[i] = i
	}
	emitOf := func(i int) (K, int) { return keys[(i*7)%len(keys)], i }
	want := map[K]int{}
	for _, i := range data {
		k, v := emitOf(i)
		want[k] += v
	}
	for workers := 1; workers <= 8; workers++ {
		job := Job[int, K, int]{
			Name:    "fold",
			Map:     func(i int, emit func(K, int)) { emit(emitOf(i)) },
			Combine: func(a, b int) int { return a + b },
			Workers: workers,
		}
		res, stats, err := Run(job, data)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pairs) != len(want) || stats.UniqueKeys != len(want) {
			t.Fatalf("%T workers=%d: %d pairs (UniqueKeys %d), want %d keys",
				keys[0], workers, len(res.Pairs), stats.UniqueKeys, len(want))
		}
		for _, p := range res.Pairs {
			if w, ok := want[p.Key]; !ok || p.Value != w {
				t.Fatalf("%T workers=%d: key %v = %d, want %d (present %v)",
					keys[0], workers, p.Key, p.Value, w, ok)
			}
		}
	}
}

// TestContainersMatchSequentialFold covers both containers and their
// boundary: integer keys in [0, denseKeys) take the array container,
// negative and larger ones the hash container, and every other key type
// the hash container alone.
func TestContainersMatchSequentialFold(t *testing.T) {
	foldCase(t, []int{-1, 0, 1, 7, denseKeys - 1, denseKeys, math.MaxInt, math.MinInt, 512, 1 << 40})
	foldCase(t, []int8{math.MinInt8, -1, 0, 1, math.MaxInt8})
	foldCase(t, []uint16{0, 1, denseKeys - 1, denseKeys, math.MaxUint16})
	foldCase(t, []uint64{0, denseKeys - 1, denseKeys, math.MaxUint64, 1 << 63})
	foldCase(t, []uintptr{0, 3, denseKeys - 1, denseKeys, ^uintptr(0)})
	foldCase(t, []int32{math.MinInt32, -denseKeys, 0, denseKeys - 1, math.MaxInt32})
	foldCase(t, []string{"", "a", "b", "hello", "4095", "a much longer key than the others"})
	type pt struct{ X, Y int }
	foldCase(t, []pt{{0, 0}, {1, 0}, {0, 1}, {-1, 5}})
}

// TestCombineOrderIsEmissionOrder pins the combine order: with one worker
// each key's values combine in emission order, in the array container,
// the hash container and the reduce fold alike.
func TestCombineOrderIsEmissionOrder(t *testing.T) {
	keys := []int{3, -2, denseKeys + 9, 3, 0, denseKeys - 1, -2, 3, math.MaxInt, 0}
	data := make([]int, 50)
	for i := range data {
		data[i] = i
	}
	want := map[int][]int{}
	for _, i := range data {
		for j := 0; j < 2; j++ {
			k := keys[(i+j)%len(keys)]
			want[k] = append(want[k], 2*i+j)
		}
	}
	job := Job[int, int, []int]{
		Name: "order",
		Map: func(i int, emit func(int, []int)) {
			for j := 0; j < 2; j++ {
				emit(keys[(i+j)%len(keys)], []int{2*i + j})
			}
		},
		// Order-recording: the result lists values in combine order.
		Combine: func(a, b []int) []int { return append(a[:len(a):len(a)], b...) },
		Workers: 1,
	}
	res, _, err := Run(job, data)
	if err != nil {
		t.Fatal(err)
	}
	got := res.ToMap()
	if len(got) != len(want) {
		t.Fatalf("%d keys, want %d", len(got), len(want))
	}
	for k, w := range want {
		if !slices.Equal(got[k], w) {
			t.Errorf("key %d combined as %v, want emission order %v", k, got[k], w)
		}
	}
}

// TestRecordsMappedOnStolenTasks counts records per task: with a task
// stolen for certain, RecordsMapped must still equal len(data).
func TestRecordsMappedOnStolenTasks(t *testing.T) {
	// Two workers, eight tasks of ten records: worker 0 owns tasks 0, 2,
	// 4 and 6. Record 0 (task 0) blocks until a record of task 6 has been
	// mapped, which only a steal by worker 1 can do first.
	data := make([]int, 80)
	for i := range data {
		data[i] = i
	}
	for round := 0; round < 3; round++ {
		stolen := make(chan struct{})
		var once sync.Once
		job := Job[int, int, int]{
			Name: "steal",
			Map: func(i int, emit func(int, int)) {
				switch {
				case i == 0:
					<-stolen
				case i >= 60 && i < 70:
					once.Do(func() { close(stolen) })
				}
				emit(i%5, 1)
			},
			Combine:        func(a, b int) int { return a + b },
			Workers:        2,
			TasksPerWorker: 4,
		}
		res, stats, err := Run(job, data)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Steals == 0 {
			t.Fatalf("round %d: no steal recorded", round)
		}
		if stats.RecordsMapped != int64(len(data)) {
			t.Errorf("round %d: RecordsMapped = %d with %d steals, want %d",
				round, stats.RecordsMapped, stats.Steals, len(data))
		}
		for _, p := range res.Pairs {
			if p.Value != 16 {
				t.Errorf("round %d: key %d = %d, want 16", round, p.Key, p.Value)
			}
		}
	}
	// Skewed record costs across eight workers: whatever gets stolen,
	// every record is counted once.
	var lines []string
	for i := 0; i < 3000; i++ {
		n := 1
		if i%10 == 0 {
			n = 300
		}
		lines = append(lines, strings.Repeat("w ", n))
	}
	_, stats, err := Run(wordCountJob(8), lines)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsMapped != int64(len(lines)) {
		t.Errorf("RecordsMapped = %d with %d steals, want %d", stats.RecordsMapped, stats.Steals, len(lines))
	}
}
