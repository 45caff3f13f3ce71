package mapreduce

// denseKeys bounds the array container: an integer key in [0, denseKeys)
// indexes a value table directly, with no hashing (Phoenix++'s array
// container). Any other key goes to the hash container.
const denseKeys = 4096

// maxChunk caps the hash container's value chunks.
const maxChunk = 1024

// container is one combiner container: the map-side intermediate store of
// one worker, and the store one reducer folds its partition into. An add
// that hits a key combines the value in place with one probe; a miss
// inserts the key. Each key is stored once: as an index into the array
// container, or as a key of the hash container's index.
type container[K comparable, V any] struct {
	combine func(a, b V) V
	// toInt and fromInt convert an integer key kind to and from its
	// value as a uint64 (signed kinds sign extended, so a negative key is
	// ≥ denseKeys); both are nil for other key kinds, which never use the
	// array container.
	toInt   func(K) uint64
	fromInt func(uint64) K
	// Array container: dense[i] holds key i's value where used[i]; both
	// grow to cover the largest dense key seen.
	dense []V
	used  []bool
	// Hash container: index points each key at its value in a chunk.
	// Chunks are never copied, so the value store grows without garbage;
	// chunk is the unused tail of the newest one.
	index map[K]*V
	chunk []V
}

// newContainer returns an empty container whose hash part is sized for
// hint keys. Nil toInt/fromInt give a hash container alone.
func newContainer[K comparable, V any](combine func(a, b V) V, toInt func(K) uint64, fromInt func(uint64) K, hint int) *container[K, V] {
	c := &container[K, V]{combine: combine, toInt: toInt, fromInt: fromInt, index: make(map[K]*V, hint)}
	if hint > 0 {
		c.chunk = make([]V, hint)
	}
	return c
}

// add folds (k, v) into the container: Combine(old, v) on a hit, so a key's
// values combine in the order they are added.
func (c *container[K, V]) add(k K, v V) {
	if c.toInt != nil {
		if i := c.toInt(k); i < denseKeys {
			if i >= uint64(len(c.dense)) {
				c.growDense(int(i))
			}
			if c.used[i] {
				c.dense[i] = c.combine(c.dense[i], v)
			} else {
				c.dense[i], c.used[i] = v, true
			}
			return
		}
	}
	if p, ok := c.index[k]; ok {
		*p = c.combine(*p, v)
		return
	}
	if len(c.chunk) == 0 {
		// Chunks double with the key count up to maxChunk, so at most
		// half of the allocated values sit unused.
		c.chunk = make([]V, min(max(16, len(c.index)), maxChunk))
	}
	p := &c.chunk[0]
	c.chunk = c.chunk[1:]
	*p = v
	c.index[k] = p
}

// growDense extends the array container to cover key i, doubling so it
// grows a few times per run, never past denseKeys.
func (c *container[K, V]) growDense(i int) {
	n := max(64, 2*len(c.dense))
	for n <= i {
		n *= 2
	}
	n = min(n, denseKeys)
	c.dense = append(c.dense, make([]V, n-len(c.dense))...)
	c.used = append(c.used, make([]bool, n-len(c.used))...)
}

// len returns the number of distinct keys held.
func (c *container[K, V]) len() int {
	n := len(c.index)
	for _, u := range c.used {
		if u {
			n++
		}
	}
	return n
}

// each calls f once per key with its combined value: dense keys in
// ascending order, then the hash container's keys in map order.
func (c *container[K, V]) each(f func(K, V)) {
	for i, u := range c.used {
		if u {
			f(c.fromInt(uint64(i)), c.dense[i])
		}
	}
	for k, p := range c.index {
		f(k, *p)
	}
}
