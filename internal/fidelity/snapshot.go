// Package fidelity is the results-observability layer of the harness: it
// turns the regenerated figures and tables into a schema-versioned metrics
// snapshot, evaluates declarative paper targets into a pass/warn/fail
// scoreboard, diffs snapshots against a committed golden baseline within
// a relative and an absolute tolerance, and renders everything (plus the
// run manifest) into a self-contained HTML or markdown run report.
//
// The package deliberately knows nothing about the simulator: producers
// (internal/expt) convert their typed figure rows into Sections of generic
// Rows, and every consumer — scoreboard, diff, report, CI gate — works on
// that one document. Like the rest of the telemetry stack, nothing here
// ever writes to stdout, so the byte-identical-output guarantee of the
// harness is preserved with fidelity tracking on or off.
package fidelity

import (
	"encoding/json"
	"fmt"
	"os"
)

// SchemaVersion is stamped into every snapshot; bump it when the meaning
// of the document changes (sections, row keys, value semantics). Loading a
// snapshot with a different schema is an error, never a silent mis-diff.
const SchemaVersion = 1

// Snapshot is one run's complete structured results: every row of every
// reproduced figure and table, keyed by the experiment configuration hash
// so before/after comparisons can prove they measured the same setup.
type Snapshot struct {
	Schema     int       `json:"schema"`
	Tool       string    `json:"tool"`
	ConfigHash string    `json:"config_hash"`
	Sections   []Section `json:"sections"`
}

// Section is one figure, table or study: an ordered list of rows.
type Section struct {
	ID    string `json:"id"`    // stable machine key, e.g. "fig8"
	Title string `json:"title"` // human heading, e.g. "Fig. 8. Full-system EDP"
	Rows  []Row  `json:"rows"`
}

// Row is one line of a figure or table. Key identifies the row within its
// section (usually the benchmark name); Values holds the scalar metrics,
// Labels the categorical ones (placement strategy, V/F multisets), and
// Series an optional ordered curve (e.g. the 64 sorted core utilizations
// behind a Fig. 2 panel) for element-wise diffing and sparklines.
type Row struct {
	Key    string             `json:"key"`
	Values map[string]float64 `json:"values,omitempty"`
	Labels map[string]string  `json:"labels,omitempty"`
	Series []float64          `json:"series,omitempty"`
}

// Section returns the section with the given id, or nil.
func (s *Snapshot) Section(id string) *Section {
	for i := range s.Sections {
		if s.Sections[i].ID == id {
			return &s.Sections[i]
		}
	}
	return nil
}

// Row returns the row with the given key, or nil.
func (sec *Section) Row(key string) *Row {
	if sec == nil {
		return nil
	}
	for i := range sec.Rows {
		if sec.Rows[i].Key == key {
			return &sec.Rows[i]
		}
	}
	return nil
}

// Metric resolves one scalar by (section, row, value name).
func (s *Snapshot) Metric(section, row, value string) (float64, bool) {
	r := s.Section(section).Row(row)
	if r == nil {
		return 0, false
	}
	v, ok := r.Values[value]
	return v, ok
}

// Label resolves one categorical value by (section, row, label name).
func (s *Snapshot) Label(section, row, label string) (string, bool) {
	r := s.Section(section).Row(row)
	if r == nil {
		return "", false
	}
	v, ok := r.Labels[label]
	return v, ok
}

// Address renders the canonical name of one metric, the form every
// diff finding and scoreboard line uses: section[row].value.
func Address(section, row, value string) string {
	return fmt.Sprintf("%s[%s].%s", section, row, value)
}

// Marshal renders the snapshot as stable, indented JSON (map keys sort,
// sections and rows keep their insertion order) terminated by a newline.
func (s *Snapshot) Marshal() ([]byte, error) {
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// WriteFile writes the snapshot to path.
func WriteFile(path string, s *Snapshot) error {
	blob, err := s.Marshal()
	if err != nil {
		return fmt.Errorf("fidelity: marshaling snapshot: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("fidelity: writing snapshot: %w", err)
	}
	return nil
}

// LoadFile reads and validates a snapshot (see parse).
func LoadFile(path string) (*Snapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fidelity: reading snapshot: %w", err)
	}
	s, err := parse(blob)
	if err != nil {
		return nil, fmt.Errorf("fidelity: snapshot %s: %w", path, err)
	}
	return s, nil
}

// parse decodes and validates one snapshot document. A schema mismatch is
// an error: diffing across schema versions would silently compare unlike
// metrics. So is a duplicate section id or a duplicate row key within a
// section: every lookup (Section, Row, Diff, the scoreboard) resolves the
// first match, so a duplicate would never be read.
func parse(blob []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("parsing: %w", err)
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("schema %d, this build reads %d (regenerate it)", s.Schema, SchemaVersion)
	}
	ids := map[string]bool{}
	for _, sec := range s.Sections {
		if ids[sec.ID] {
			return nil, fmt.Errorf("duplicate section %q", sec.ID)
		}
		ids[sec.ID] = true
		keys := map[string]bool{}
		for _, r := range sec.Rows {
			if keys[r.Key] {
				return nil, fmt.Errorf("section %s: duplicate row %q", sec.ID, r.Key)
			}
			keys[r.Key] = true
		}
	}
	return &s, nil
}
