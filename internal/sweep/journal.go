package sweep

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
)

// JournalSchemaVersion is folded into every journal record; a version bump
// makes old records invisible to resume (they are skipped, not errors).
const JournalSchemaVersion = 1

// Record is one journal line: the full scenario identity, its
// deterministic results, and runtime-only observability fields. The atlas
// is computed exclusively from the deterministic fields — CacheHit and
// WallMS vary between cold and resumed runs (an interrupted sweep may have
// pre-warmed the design cache for scenarios it never journaled) and are
// deliberately excluded, which is what makes cold and resumed aggregates
// byte-identical.
type Record struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	// ConfigHash is expt.ConfigHash of the scenario config — the design
	// cache correlation handle (scenarios differing only in policy/tier
	// share it).
	ConfigHash string  `json:"config_hash"`
	App        string  `json:"app"`
	Rows       int     `json:"rows"`
	Cols       int     `json:"cols"`
	Islands    int     `json:"islands"`
	Sizes      []int   `json:"sizes,omitempty"`
	Margin     float64 `json:"margin"`
	Policy     string  `json:"policy"`
	CapW       float64 `json:"cap_w,omitempty"`
	Tier       string  `json:"tier"`

	// Deterministic results (absent on error records). Ratios are VFI mesh
	// vs the mapped NVFI mesh baseline of the same platform.
	ExecSeconds float64 `json:"exec_s,omitempty"`
	TotalJ      float64 `json:"total_j,omitempty"`
	EDP         float64 `json:"edp,omitempty"`
	ExecRatio   float64 `json:"exec_ratio,omitempty"`
	EnergyRatio float64 `json:"energy_ratio,omitempty"`
	EDPRatio    float64 `json:"edp_ratio,omitempty"`
	// WiNoCEDPRatio is the max-wireless WiNoC system's EDP ratio vs the
	// same baseline (winoc tier only).
	WiNoCEDPRatio float64 `json:"winoc_edp_ratio,omitempty"`
	// Governor decision statistics (governed policies only).
	Transitions int `json:"transitions,omitempty"`
	// DES-vs-analytic fidelity probe: average packet latency of the
	// calibrated analytic model and the cycle-accurate DES on the
	// scenario's mapped switch traffic, and their relative deviation.
	AnalyticLatencyCycles float64 `json:"analytic_latency_cycles,omitempty"`
	DESLatencyCycles      float64 `json:"des_latency_cycles,omitempty"`
	DESDeviation          float64 `json:"des_deviation,omitempty"`
	// Error marks a failed scenario; failed scenarios still count as done
	// for resume (rerunning a deterministic failure reproduces it).
	Error string `json:"error,omitempty"`

	// Runtime observability — never part of the atlas.
	CacheHit bool  `json:"cache_hit"`
	WallMS   int64 `json:"wall_ms"`
}

// Journal is an append-only NDJSON sweep journal. Appends are serialized
// and flushed per record, so a killed process loses at most the line being
// written — and the tolerant loader skips a torn final line.
type Journal struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// OpenJournal opens (creating if needed) a journal for appending.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening journal: %w", err)
	}
	return &Journal{f: f, w: bufio.NewWriter(f)}, nil
}

// Append writes one record as a single NDJSON line and flushes it.
func (j *Journal) Append(rec Record) error {
	rec.Schema = JournalSchemaVersion
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sweep: encoding journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(append(blob, '\n')); err != nil {
		return fmt.Errorf("sweep: appending journal record: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("sweep: flushing journal: %w", err)
	}
	return nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// completed reports whether r records a scenario's outcome: an error, or
// the results of a run (every run takes positive time). A line that only
// names its key, such as {"schema":1,"key":K}, is not an outcome.
func (r Record) completed() bool {
	return r.Error != "" || r.ExecSeconds > 0
}

// LoadJournal reads a journal into a key->record map. A missing file is an
// empty journal. Unparsable lines (torn final write of a killed run),
// blank lines, schema-mismatched records and records that are not
// completed are skipped. The first completed record of a key wins: Run
// never re-runs a journaled key and scenarios are deterministic, so a
// later line for the same key is a duplicate or foreign, and cannot
// replace the outcome already loaded. A line over the 4 MiB scanner limit
// is an error, not a skip, so no later record is silently lost.
func LoadJournal(path string) (map[string]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return map[string]Record{}, nil
		}
		return nil, fmt.Errorf("sweep: opening journal: %w", err)
	}
	defer f.Close()
	return readJournal(f)
}

// readJournal is LoadJournal on an open journal.
func readJournal(r io.Reader) (map[string]Record, error) {
	recs := map[string]Record{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // torn or foreign line
		}
		if rec.Schema != JournalSchemaVersion || rec.Key == "" || !rec.completed() {
			continue
		}
		if _, dup := recs[rec.Key]; !dup {
			recs[rec.Key] = rec
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sweep: reading journal: %w", err)
	}
	return recs, nil
}
