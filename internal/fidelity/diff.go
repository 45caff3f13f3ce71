package fidelity

import (
	"fmt"
	"math"
	"sort"
)

// DiffOptions tunes the snapshot comparison. The zero value gets sane
// defaults from Diff: a 1e-6 relative tolerance (wide enough for
// cross-architecture floating-point drift such as FMA contraction, far
// tighter than any real model change) with a 1e-9 absolute floor for
// near-zero metrics.
type DiffOptions struct {
	RelTol float64
	AbsTol float64
}

// FindingKind classifies one diff finding.
type FindingKind string

const (
	// Changed: the metric moved beyond tolerance.
	Changed FindingKind = "changed"
	// Removed: the baseline has a metric/row/section the current snapshot
	// lacks — coverage regressed.
	Removed FindingKind = "removed"
	// Added: the current snapshot has a metric the baseline lacks. New
	// coverage is informational, never a regression.
	Added FindingKind = "added"
	// LabelChanged: a categorical value differs (e.g. the winning
	// placement strategy flipped).
	LabelChanged FindingKind = "label-changed"
)

// Finding is one out-of-tolerance difference.
type Finding struct {
	Kind     FindingKind `json:"kind"`
	Address  string      `json:"address"`
	Old      float64     `json:"old,omitempty"`
	New      float64     `json:"new,omitempty"`
	OldLabel string      `json:"old_label,omitempty"`
	NewLabel string      `json:"new_label,omitempty"`
	RelDelta float64     `json:"rel_delta,omitempty"`
	Note     string      `json:"note,omitempty"`
}

func (f Finding) String() string {
	switch f.Kind {
	case Changed:
		return fmt.Sprintf("%s: %s %.6g -> %.6g (%+.3g%%)", f.Kind, f.Address, f.Old, f.New, 100*f.RelDelta)
	case LabelChanged:
		return fmt.Sprintf("%s: %s %q -> %q", f.Kind, f.Address, f.OldLabel, f.NewLabel)
	default:
		s := fmt.Sprintf("%s: %s", f.Kind, f.Address)
		if f.Note != "" {
			s += " (" + f.Note + ")"
		}
		return s
	}
}

// DiffReport is the outcome of comparing a current snapshot against a
// baseline.
type DiffReport struct {
	BaselineConfigHash string    `json:"baseline_config_hash"`
	CurrentConfigHash  string    `json:"current_config_hash"`
	ConfigMismatch     bool      `json:"config_mismatch"`
	Compared           int       `json:"compared"` // scalar metrics compared
	Findings           []Finding `json:"findings,omitempty"`
}

// Regressions returns the findings that should gate a CI run: everything
// except purely additive coverage.
func (d *DiffReport) Regressions() []Finding {
	var out []Finding
	for _, f := range d.Findings {
		if f.Kind != Added {
			out = append(out, f)
		}
	}
	return out
}

// Clean reports whether the diff found no regressions and the
// configurations match.
func (d *DiffReport) Clean() bool {
	return !d.ConfigMismatch && len(d.Regressions()) == 0
}

// Diff compares current against baseline metric-by-metric. Scalar values
// (including series elements) compare within max(RelTol·|old|, AbsTol);
// labels compare exactly. Rows and sections present only on one side
// produce Removed/Added findings. A config-hash mismatch is flagged but
// the value comparison still runs — the numbers show what the config
// change did.
func Diff(current, baseline *Snapshot, opts DiffOptions) *DiffReport {
	if opts.RelTol == 0 {
		opts.RelTol = 1e-6
	}
	if opts.AbsTol == 0 {
		opts.AbsTol = 1e-9
	}
	d := &DiffReport{
		BaselineConfigHash: baseline.ConfigHash,
		CurrentConfigHash:  current.ConfigHash,
		ConfigMismatch:     baseline.ConfigHash != current.ConfigHash,
	}

	within := func(old, cur float64) (float64, bool) {
		tol := math.Max(opts.RelTol*math.Abs(old), opts.AbsTol)
		delta := cur - old
		relDelta := 0.0
		if old != 0 {
			relDelta = delta / old
		}
		return relDelta, math.Abs(delta) <= tol
	}

	for _, bsec := range baseline.Sections {
		csec := current.Section(bsec.ID)
		if csec == nil {
			d.Findings = append(d.Findings, Finding{
				Kind: Removed, Address: bsec.ID,
				Note: fmt.Sprintf("section with %d row(s) missing from current snapshot", len(bsec.Rows)),
			})
			continue
		}
		for _, brow := range bsec.Rows {
			crow := csec.Row(brow.Key)
			if crow == nil {
				d.Findings = append(d.Findings, Finding{
					Kind: Removed, Address: bsec.ID + "[" + brow.Key + "]",
					Note: "row missing from current snapshot",
				})
				continue
			}
			for _, name := range sortedKeys(brow.Values) {
				addr := Address(bsec.ID, brow.Key, name)
				old := brow.Values[name]
				cur, ok := crow.Values[name]
				if !ok {
					d.Findings = append(d.Findings, Finding{Kind: Removed, Address: addr, Note: "metric missing"})
					continue
				}
				d.Compared++
				if rel, ok := within(old, cur); !ok {
					d.Findings = append(d.Findings, Finding{Kind: Changed, Address: addr, Old: old, New: cur, RelDelta: rel})
				}
			}
			for _, name := range sortedKeys(brow.Labels) {
				addr := Address(bsec.ID, brow.Key, name)
				old := brow.Labels[name]
				cur, ok := crow.Labels[name]
				if !ok {
					d.Findings = append(d.Findings, Finding{Kind: Removed, Address: addr, Note: "label missing"})
					continue
				}
				if cur != old {
					d.Findings = append(d.Findings, Finding{Kind: LabelChanged, Address: addr, OldLabel: old, NewLabel: cur})
				}
			}
			if len(brow.Series) > 0 {
				addr := Address(bsec.ID, brow.Key, "series")
				if len(crow.Series) != len(brow.Series) {
					d.Findings = append(d.Findings, Finding{
						Kind: Changed, Address: addr,
						Old: float64(len(brow.Series)), New: float64(len(crow.Series)),
						Note: "series length changed",
					})
				} else {
					worst, worstIdx, bad := 0.0, -1, false
					for i := range brow.Series {
						d.Compared++
						rel, ok := within(brow.Series[i], crow.Series[i])
						if !ok && math.Abs(rel) >= math.Abs(worst) {
							worst, worstIdx, bad = rel, i, true
						}
					}
					if bad {
						d.Findings = append(d.Findings, Finding{
							Kind: Changed, Address: fmt.Sprintf("%s[%d]", addr, worstIdx),
							Old: brow.Series[worstIdx], New: crow.Series[worstIdx], RelDelta: worst,
							Note: "largest series deviation",
						})
					}
				}
			}
			// additions within an existing row
			for _, name := range sortedKeys(crow.Values) {
				if _, ok := brow.Values[name]; !ok {
					d.Findings = append(d.Findings, Finding{Kind: Added, Address: Address(bsec.ID, brow.Key, name)})
				}
			}
		}
		for _, crow := range csec.Rows {
			if bsec.Row(crow.Key) == nil {
				d.Findings = append(d.Findings, Finding{Kind: Added, Address: bsec.ID + "[" + crow.Key + "]"})
			}
		}
	}
	for _, csec := range current.Sections {
		if baseline.Section(csec.ID) == nil {
			d.Findings = append(d.Findings, Finding{Kind: Added, Address: csec.ID})
		}
	}
	return d
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
