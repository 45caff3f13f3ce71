// Package mapreduce is a shared-memory MapReduce engine in the style of
// Phoenix++ (Talbot et al., MapReduce '11): a job runs through Split, Map,
// Reduce and Merge stages on a pool of worker goroutines with work stealing
// in the Map phase and per-worker combiner containers that keep the
// intermediate state cache-local. An emit combines into its key's value in
// place: integer keys in [0, 4096) index an array container directly, and
// every other key goes through a hash container (container.go).
//
// This is the executable counterpart of the platform model: the six
// benchmark applications in internal/apps run for real on this engine (and
// their workload models feed the VFI/NoC simulation in internal/sim).
//
// Typical use:
//
//	job := mapreduce.Job[string, string, int]{
//		Name:    "wordcount",
//		Map:     func(line string, emit func(string, int)) { ... },
//		Combine: func(a, b int) int { return a + b },
//	}
//	out, stats, err := mapreduce.Run(job, lines)
package mapreduce

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
	"unsafe"

	"wivfi/internal/obs"
)

// Telemetry totals across every Run in the process. Counters are
// allocation-free atomic adds; the spans and steal events below record
// only while an obs recorder is installed (and are no-ops costing one
// atomic load otherwise), so the engine's hot paths are unchanged when
// telemetry is off.
// Metric names registered below. Declared constants (enforced by
// wivfi-lint countersafe) so every lookup site shares one authoritative
// spelling.
const (
	MetricRuns          = "mapreduce.runs"
	MetricTasks         = "mapreduce.tasks"
	MetricSteals        = "mapreduce.steals"
	MetricRecordsMapped = "mapreduce.records_mapped"
)

var (
	mrRuns    = obs.NewCounter(MetricRuns)
	mrTasks   = obs.NewCounter(MetricTasks)
	mrSteals  = obs.NewCounter(MetricSteals)
	mrRecords = obs.NewCounter(MetricRecordsMapped)
)

// Job describes one MapReduce computation over inputs of type In producing
// (K, V) pairs.
type Job[In any, K comparable, V any] struct {
	// Name labels the job in stats output.
	Name string
	// Map processes one input record and emits intermediate pairs. It must
	// be safe for concurrent invocation on distinct records.
	Map func(record In, emit func(K, V))
	// Combine merges two values of the same key. It must be associative
	// and commutative; it runs both inside the map-side combiners and in
	// the reduce phase.
	Combine func(a, b V) V
	// Workers is the number of worker goroutines; 0 means GOMAXPROCS.
	Workers int
	// TasksPerWorker controls map-task granularity: the input is split
	// into Workers*TasksPerWorker tasks (0 means 4, Phoenix-like
	// over-decomposition that gives stealing room).
	TasksPerWorker int
	// KeyLess, when non-nil, sorts the merged output by key.
	KeyLess func(a, b K) bool
	// KeyHash, when non-nil, shards keys across reduce partitions. It must
	// be safe for concurrent invocation: the map workers shard their
	// containers in parallel. The default is allocation-free for string and
	// integer keys and falls back to hashing the key's fmt representation
	// for other types.
	KeyHash func(k K) uint32
}

// Pair is one (key, value) output record.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// Stats reports the execution profile of one run — the same phase taxonomy
// the platform simulator models.
type Stats struct {
	Workers       int
	Tasks         int
	Steals        int
	SplitTime     time.Duration
	MapTime       time.Duration
	ReduceTime    time.Duration
	MergeTime     time.Duration
	UniqueKeys    int
	RecordsMapped int64
}

// Result carries the merged output.
type Result[K comparable, V any] struct {
	// Pairs is the merged output, sorted by KeyLess when provided.
	Pairs []Pair[K, V]
}

// ToMap returns the output as a map.
func (r *Result[K, V]) ToMap() map[K]V {
	m := make(map[K]V, len(r.Pairs))
	for _, p := range r.Pairs {
		m[p.Key] = p.Value
	}
	return m
}

// taskQueue is one worker's deque of map-task indices, protected by a
// mutex so idle workers can steal from the tail.
type taskQueue struct {
	mu    sync.Mutex
	tasks []int
}

// popFront takes the next local task.
func (q *taskQueue) popFront() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return 0, false
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t, true
}

// stealBack takes a task from the tail (victim side).
func (q *taskQueue) stealBack() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return 0, false
	}
	t := q.tasks[len(q.tasks)-1]
	q.tasks = q.tasks[:len(q.tasks)-1]
	return t, true
}

func (q *taskQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.tasks)
}

// Run executes the job over data and returns the merged output and stats.
func Run[In any, K comparable, V any](job Job[In, K, V], data []In) (*Result[K, V], Stats, error) {
	if job.Map == nil {
		return nil, Stats{}, fmt.Errorf("mapreduce: job %q has no Map function", job.Name)
	}
	if job.Combine == nil {
		return nil, Stats{}, fmt.Errorf("mapreduce: job %q has no Combine function", job.Name)
	}
	workers := job.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tpw := job.TasksPerWorker
	if tpw <= 0 {
		tpw = 4
	}
	var stats Stats
	stats.Workers = workers
	mrRuns.Add(1)
	runSpan := obs.StartSpan("mr.run", job.Name)
	defer runSpan.End()
	// Time-resolved series (nil and allocation-free when no timeline
	// collector is installed).
	tl := newRunTimeline(job.Name, workers, len(data))

	// ---- Split: divide records into tasks and deal them round-robin ----
	splitSpan := obs.StartSpan("mr.split", job.Name)
	splitStart := time.Now() //lint:wallclock host-side phase timing for Stats.SplitTime; never feeds simulated results
	numTasks := workers * tpw
	if numTasks > len(data) {
		numTasks = len(data)
	}
	if numTasks == 0 {
		numTasks = 1
	}
	bounds := make([][2]int, numTasks)
	per := len(data) / numTasks
	rem := len(data) % numTasks
	start := 0
	for i := range bounds {
		size := per
		if i < rem {
			size++
		}
		bounds[i] = [2]int{start, start + size}
		start += size
	}
	stats.Tasks = numTasks
	queues := make([]*taskQueue, workers)
	for w := range queues {
		queues[w] = &taskQueue{}
	}
	for i := 0; i < numTasks; i++ {
		q := queues[i%workers]
		q.tasks = append(q.tasks, i)
	}
	stats.SplitTime = time.Since(splitStart) //lint:wallclock host-side phase timing; never feeds simulated results
	splitSpan.End()
	mrTasks.Add(int64(numTasks))
	// One work item per task created, so the split phase has nonzero
	// width on the index axis before map begins.
	tl.advance(int64(numTasks))

	// ---- Map: work-stealing workers with per-worker combiners ----
	mapSpan := obs.StartSpan("mr.map", job.Name)
	mapStart := time.Now() //lint:wallclock host-side phase timing for Stats.MapTime; never feeds simulated results
	toInt, fromInt := intKeyOf[K]()
	locals := make([]*container[K, V], workers)
	steals := make([]int, workers)
	records := make([]int64, workers)
	// One trace track per worker goroutine ("mr-worker-03"); track 0 when
	// telemetry is off, where every span/instant call is a no-op.
	tracks := workerTracks(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wspan := obs.StartSpanOn(tracks[w], "mr.map.worker", job.Name)
			defer wspan.End()
			tl.setPhase(w, "map")
			local := newContainer(job.Combine, toInt, fromInt, 0)
			emit := local.add
			for {
				idx, ok := queues[w].popFront()
				if !ok {
					// steal from the most loaded victim
					victim, best := -1, 0
					for v := range queues {
						if v == w {
							continue
						}
						if s := queues[v].size(); s > best {
							victim, best = v, s
						}
					}
					if victim < 0 {
						break
					}
					idx, ok = queues[victim].stealBack()
					if !ok {
						continue // raced; rescan
					}
					steals[w]++
					obs.Instant(tracks[w], "mr.steal", job.Name)
					tl.steal()
				}
				tl.queueDepth(queues[w].size())
				tspan := obs.StartSpanOn(tracks[w], "mr.task", job.Name)
				lo, hi := bounds[idx][0], bounds[idx][1]
				for r := lo; r < hi; r++ {
					job.Map(data[r], emit)
				}
				// Counted per task: a per-record increment would bounce
				// the cache line records shares between workers.
				records[w] += int64(hi - lo)
				tspan.End()
				tl.advance(int64(hi - lo))
			}
			locals[w] = local
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		stats.Steals += steals[w]
		stats.RecordsMapped += records[w]
	}
	stats.MapTime = time.Since(mapStart) //lint:wallclock host-side phase timing; never feeds simulated results
	mapSpan.End()
	mrSteals.Add(int64(stats.Steals))
	mrRecords.Add(stats.RecordsMapped)

	// ---- Reduce: merge the per-worker maps in parallel partitions ----
	reduceSpan := obs.StartSpan("mr.reduce", job.Name)
	reduceStart := time.Now() //lint:wallclock host-side phase timing for Stats.ReduceTime; never feeds simulated results
	hash := job.KeyHash
	if hash == nil {
		hash = defaultKeyHash[K]()
	}
	// Pass 1: each worker shards its own container into one pair slice
	// per partition, hashing every key exactly once, and drops the
	// container.
	sharded := make([][][]Pair[K, V], workers)
	var sg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sg.Add(1)
		go func(w int) {
			defer sg.Done()
			sspan := obs.StartSpanOn(tracks[w], "mr.reduce.shard", job.Name)
			defer sspan.End()
			tl.setPhase(w, "reduce")
			local := locals[w]
			locals[w] = nil
			n := local.len()
			// Room for an even share plus slack, so a default-hashed shard
			// rarely outgrows it.
			hint := n/workers + n/(8*workers) + 8
			shards := make([][]Pair[K, V], workers)
			local.each(func(k K, v V) {
				p := int(hash(k)) % workers
				if shards[p] == nil {
					shards[p] = make([]Pair[K, V], 0, hint)
				}
				shards[p] = append(shards[p], Pair[K, V]{Key: k, Value: v})
			})
			sharded[w] = shards
			tl.advance(int64(n))
		}(w)
	}
	sg.Wait()
	// Pass 2: reducer p folds shard p of workers 0..W-1, in that order,
	// into a hash container sized for its largest shard, dropping each
	// shard once read. A partition holds about 1/W of the dense keys, so
	// a cell table spanning them would be mostly empty.
	partitions := make([]*container[K, V], workers)
	var rg sync.WaitGroup
	for p := 0; p < workers; p++ {
		rg.Add(1)
		go func(p int) {
			defer rg.Done()
			pspan := obs.StartSpanOn(tracks[p], "mr.reduce.merge", job.Name)
			defer pspan.End()
			hint := 0
			for w := 0; w < workers; w++ {
				hint = max(hint, len(sharded[w][p]))
			}
			part := newContainer[K, V](job.Combine, nil, nil, hint)
			for w := 0; w < workers; w++ {
				for _, kv := range sharded[w][p] {
					part.add(kv.Key, kv.Value)
				}
				sharded[w][p] = nil
			}
			partitions[p] = part
		}(p)
	}
	rg.Wait()
	stats.ReduceTime = time.Since(reduceStart) //lint:wallclock host-side phase timing; never feeds simulated results
	reduceSpan.End()

	// ---- Merge: concatenate partitions and sort ----
	mergeSpan := obs.StartSpan("mr.merge", job.Name)
	mergeStart := time.Now() //lint:wallclock host-side phase timing for Stats.MergeTime; never feeds simulated results
	tl.setPhaseAll("merge")
	var total int
	for _, part := range partitions {
		total += part.len()
	}
	pairs := make([]Pair[K, V], 0, total)
	for p, part := range partitions {
		partitions[p] = nil
		part.each(func(k K, v V) { pairs = append(pairs, Pair[K, V]{Key: k, Value: v}) })
	}
	if job.KeyLess != nil {
		sort.Slice(pairs, func(i, j int) bool { return job.KeyLess(pairs[i].Key, pairs[j].Key) })
	}
	stats.MergeTime = time.Since(mergeStart) //lint:wallclock host-side phase timing; never feeds simulated results
	mergeSpan.End()
	tl.advance(int64(len(pairs)))
	tl.setPhaseAll("done")
	stats.UniqueKeys = len(pairs)
	return &Result[K, V]{Pairs: pairs}, stats, nil
}

// workerTracks returns the per-worker trace track ids ("mr-worker-03").
// With telemetry disabled it returns a shared all-zero slice, allocating
// nothing per run beyond the cached slice growth.
func workerTracks(workers int) []int32 {
	if !obs.Enabled() {
		return zeroTracks(workers)
	}
	tracks := make([]int32, workers)
	for w := range tracks {
		tracks[w] = obs.TrackFor(fmt.Sprintf("mr-worker-%02d", w))
	}
	return tracks
}

// zeroTrackSlice is a grow-only cache of zeros for the disabled path.
var zeroTrackSlice struct {
	mu sync.Mutex
	s  []int32
}

func zeroTracks(n int) []int32 {
	zeroTrackSlice.mu.Lock()
	defer zeroTrackSlice.mu.Unlock()
	if len(zeroTrackSlice.s) < n {
		zeroTrackSlice.s = make([]int32, n)
	}
	return zeroTrackSlice.s[:n]
}

// defaultKeyHash selects a shard hash for the key type: FNV-1a directly on
// string keys, a SplitMix64-style mix on integer keys (both allocation
// free), and FNV-1a over the fmt representation as the fallback for
// everything else. Partitioning only needs determinism within one run, so
// the integer path is free to differ from the string form of the number.
func defaultKeyHash[K comparable]() func(K) uint32 {
	var zero K
	if _, ok := any(zero).(string); ok {
		return func(k K) uint32 { return fnvHash(*(*string)(unsafe.Pointer(&k))) }
	}
	if toInt, _ := intKeyOf[K](); toInt != nil {
		return func(k K) uint32 { return mix64(toInt(k)) }
	}
	return func(k K) uint32 { return fnvHash(fmt.Sprintf("%v", k)) }
}

// intKeyOf returns, for an integer key kind, conversions of a key to and
// from its value as a uint64 (signed kinds sign extended), and nil for any
// other key type. The shard hash and the array container read keys
// through them.
func intKeyOf[K comparable]() (toInt func(K) uint64, fromInt func(uint64) K) {
	var zero K
	switch any(zero).(type) {
	case int:
		return intConv[K, int]()
	case int8:
		return intConv[K, int8]()
	case int16:
		return intConv[K, int16]()
	case int32:
		return intConv[K, int32]()
	case int64:
		return intConv[K, int64]()
	case uint:
		return intConv[K, uint]()
	case uint8:
		return intConv[K, uint8]()
	case uint16:
		return intConv[K, uint16]()
	case uint32:
		return intConv[K, uint32]()
	case uint64:
		return intConv[K, uint64]()
	case uintptr:
		return intConv[K, uintptr]()
	}
	return nil, nil
}

// intConv converts keys whose dynamic type intKeyOf established as I;
// unsafe.Pointer reinterprets the key without boxing it into an interface
// (and thus allocating) on every call.
func intConv[K comparable, I int | int8 | int16 | int32 | int64 | uint | uint8 | uint16 | uint32 | uint64 | uintptr]() (func(K) uint64, func(uint64) K) {
	return func(k K) uint64 { return uint64(*(*I)(unsafe.Pointer(&k))) },
		func(x uint64) (k K) {
			*(*I)(unsafe.Pointer(&k)) = I(x)
			return k
		}
}

// mix64 is the SplitMix64 finalizer, folded to 32 bits.
func mix64(x uint64) uint32 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x ^ (x >> 32))
}

// fnvHash is a small FNV-1a over the key's string form, used only to shard
// reduce partitions deterministically.
func fnvHash(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
