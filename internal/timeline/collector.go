package timeline

import (
	"sync"
	"sync/atomic"
)

// Collector is the process-wide sink for timeline series. Producers ask it
// for named primitives (get-or-create); post-hoc builders append finished
// series directly with AddSeries. All methods are safe for concurrent use
// and no-ops on a nil receiver, so call sites read
//
//	timeline.Active().Sampler(...)
//
// unconditionally — when nothing is installed the handle chain is nil end
// to end and nothing allocates.
type Collector struct {
	mu         sync.Mutex
	samplers   map[string]*Sampler
	histograms map[string]*Histogram
	tracks     map[string]*Track
	series     []Series
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		samplers:   map[string]*Sampler{},
		histograms: map[string]*Histogram{},
		tracks:     map[string]*Track{},
	}
}

// Sampler returns the named sampler, creating it with the given window and
// aggregation on first use. Nil receiver returns nil.
func (c *Collector) Sampler(meta Meta, window int64, agg Agg) *Sampler {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.samplers[meta.Name]
	if !ok {
		s = NewSampler(meta, window, agg)
		c.samplers[meta.Name] = s
	}
	return s
}

// Histogram returns the named histogram, creating it on first use. Nil
// receiver returns nil.
func (c *Collector) Histogram(meta Meta) *Histogram {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.histograms[meta.Name]
	if !ok {
		h = NewHistogram(meta)
		c.histograms[meta.Name] = h
	}
	return h
}

// Track returns the named track, creating it on first use. Nil receiver
// returns nil.
func (c *Collector) Track(meta Meta) *Track {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tracks[meta.Name]
	if !ok {
		t = NewTrack(meta)
		c.tracks[meta.Name] = t
	}
	return t
}

// AddSeries appends finished series (from post-hoc builders like
// expt.CollectTimelines or noc.RunDESTimeline). A series whose name is
// already present replaces the earlier one, so re-collection is
// idempotent. No-op on a nil receiver.
func (c *Collector) AddSeries(series ...Series) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
outer:
	for _, sr := range series {
		for i := range c.series {
			if c.series[i].Name == sr.Name {
				c.series[i] = sr
				continue outer
			}
		}
		c.series = append(c.series, sr)
	}
}

// Export snapshots every primitive and appended series into a sorted,
// schema-stamped Set. Nil receiver returns an empty valid Set.
func (c *Collector) Export(tool string) *Set {
	if c == nil {
		return &Set{Schema: SchemaVersion, Tool: tool}
	}
	set := &Set{Schema: SchemaVersion, Tool: tool}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.samplers {
		set.Series = append(set.Series, s.Series())
	}
	for _, h := range c.histograms {
		set.Series = append(set.Series, h.Series())
	}
	for _, t := range c.tracks {
		set.Series = append(set.Series, t.Series())
	}
	set.Series = append(set.Series, c.series...)
	set.Sort()
	return set
}

// ---- Global install point --------------------------------------------------

var active atomic.Pointer[Collector]

// Install makes c the process-wide collector (nil uninstalls). The
// command-line tools' telemetry session (obs.CLI) installs one collector
// for the whole run.
func Install(c *Collector) { active.Store(c) }

// Active returns the installed collector, or nil. Safe to chain:
// timeline.Active().Sampler(...) returns a nil handle when disabled.
func Active() *Collector { return active.Load() }

// Enabled reports whether a collector is installed. Guard name
// formatting and other enable-path-only allocations behind this.
func Enabled() bool { return active.Load() != nil }
