// Package sweep generates parametric platform scenarios — mesh size x VFI
// island split x application x V/F margin x governor policy — and fans
// them through the experiment pipeline with bounded concurrency, an
// append-only resumable NDJSON journal and a fleet-level observability
// plane (progress gauges, Prometheus counters, per-scenario events and an
// aggregate "atlas" report).
//
// Every scenario is keyed by the same config hash that scopes the design
// cache (expt.RequestKey), so repeated sweeps — and sweeps overlapping the
// figure suite — deduplicate the expensive profile/clustering work, and a
// journal written by one run can resume another: completed keys are
// skipped and the atlas is a pure function of the deterministic record
// fields, making cold and resumed aggregates byte-identical.
package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
	"wivfi/internal/governor"
)

// SpecSchemaVersion is the sweep-spec document schema this package reads.
const SpecSchemaVersion = 1

// DefaultAnalyticTolerance is the relative DES-vs-analytic latency
// deviation above which a scenario is flagged as an outlier in the atlas.
// Calibrated empirically: the analytic model omits a roughly constant
// ~4-cycle per-packet injection/ejection pipeline cost that the
// cycle-accurate DES charges, which dominates relatively on small meshes
// (measured deviations ~0.30-0.38 on 4x4, ~0.22 on 6x6, ~0.16 on 8x8,
// under 0.12 from 12x12 up at the probe load). 0.5 leaves ~25% headroom
// over the worst healthy small-mesh case while still flagging congestion
// collapse, where DES latency runs a multiple of the analytic prediction.
const DefaultAnalyticTolerance = 0.5

// IslandAxis is one point of the island-split axis.
type IslandAxis struct {
	// Count is the number of VFI islands.
	Count int `json:"count"`
	// Split optionally skews the island sizes: proportional integer
	// weights, one per island, scaled to each mesh's core count with
	// largest-remainder rounding. Nil or all-equal weights mean the equal
	// n/m split (and hit the same design-cache entries as the figure
	// suite). Example: {"count": 2, "split": [1, 3]} puts a quarter of the
	// cores on island 0.
	Split []int `json:"split,omitempty"`
}

// Spec declares a sweep: the axes of a full cross-product grid plus an
// optional seeded random subsample. The zero values of the optional fields
// choose the paper's defaults.
type Spec struct {
	Schema int    `json:"schema"`
	Name   string `json:"name"`
	// Meshes lists platform grids as "RxC" strings ("8x8", "4x6", ...).
	Meshes []string `json:"meshes"`
	// Islands lists the island-split axis; default one point: 4 equal.
	Islands []IslandAxis `json:"islands,omitempty"`
	// Apps lists benchmark names; default all six (expt.AppOrder).
	Apps []string `json:"apps,omitempty"`
	// Margins lists V/F-selection margins; default the paper's 0.35.
	Margins []float64 `json:"margins,omitempty"`
	// Policies lists governor modes per scenario: "none" (static plan, the
	// default), "static", "util" or "cap".
	Policies []string `json:"policies,omitempty"`
	// CapW is the core-power cap for "cap" policy scenarios (default
	// expt.DefaultGovernorCapW).
	CapW float64 `json:"cap_w,omitempty"`
	// Tier selects the simulated system set: "mesh" (default; baseline +
	// VFI 2 mesh) or "winoc" (additionally the max-wireless WiNoC system,
	// on scenarios whose islands can host wireless interfaces).
	Tier string `json:"tier,omitempty"`
	// Sample, when positive, draws this many scenarios from the grid
	// uniformly without replacement using Seed; 0 keeps the full grid.
	Sample int   `json:"sample,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
	// AnalyticTolerance overrides the atlas outlier threshold.
	AnalyticTolerance float64 `json:"analytic_tolerance,omitempty"`
}

// LoadSpec reads and validates a sweep spec from a JSON file.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: reading spec: %w", err)
	}
	return ParseSpec(raw)
}

// ParseSpec decodes and validates a sweep spec document.
func ParseSpec(raw []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("sweep: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// parseMesh parses an "RxC" grid string.
func parseMesh(s string) (rows, cols int, err error) {
	parts := strings.SplitN(strings.ToLower(strings.TrimSpace(s)), "x", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("sweep: mesh %q not of the form RxC", s)
	}
	rows, err = strconv.Atoi(parts[0])
	if err == nil {
		cols, err = strconv.Atoi(parts[1])
	}
	if err != nil || rows <= 0 || cols <= 0 {
		return 0, 0, fmt.Errorf("sweep: mesh %q not of the form RxC with positive dimensions", s)
	}
	return rows, cols, nil
}

// Validate checks the spec and fills documented defaults in place.
func (s *Spec) Validate() error {
	if s.Schema == 0 {
		s.Schema = SpecSchemaVersion
	}
	if s.Schema != SpecSchemaVersion {
		return fmt.Errorf("sweep: spec schema %d unsupported (want %d)", s.Schema, SpecSchemaVersion)
	}
	if s.Name == "" {
		s.Name = "sweep"
	}
	if len(s.Meshes) == 0 {
		return fmt.Errorf("sweep: spec needs at least one mesh")
	}
	for _, m := range s.Meshes {
		rows, cols, err := parseMesh(m)
		if err != nil {
			return err
		}
		if rows < 2 || cols < 2 || rows > 32 || cols > 32 {
			return fmt.Errorf("sweep: mesh %q outside the supported 2x2..32x32 range", m)
		}
	}
	if len(s.Islands) == 0 {
		s.Islands = []IslandAxis{{Count: 4}}
	}
	for i, isl := range s.Islands {
		if isl.Count <= 0 {
			return fmt.Errorf("sweep: islands[%d] needs a positive count, got %d", i, isl.Count)
		}
		if len(isl.Split) > 0 && len(isl.Split) != isl.Count {
			return fmt.Errorf("sweep: islands[%d] split has %d weights for %d islands", i, len(isl.Split), isl.Count)
		}
		if _, ok := weightTotal(isl.Split); !ok {
			return fmt.Errorf("sweep: islands[%d] split weights must be positive and sum within the int range", i)
		}
	}
	if len(s.Apps) == 0 {
		s.Apps = append([]string(nil), expt.AppOrder...)
	}
	for _, a := range s.Apps {
		if _, err := apps.ByName(a); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if len(s.Margins) == 0 {
		s.Margins = []float64{0.35}
	}
	for _, m := range s.Margins {
		if m < 0 || m > 1 {
			return fmt.Errorf("sweep: margin %v outside [0, 1]", m)
		}
	}
	if len(s.Policies) == 0 {
		s.Policies = []string{"none"}
	}
	for _, p := range s.Policies {
		if p == "none" {
			continue
		}
		if _, err := governor.ParsePolicy(p); err != nil {
			return fmt.Errorf("sweep: policy %q: %w", p, err)
		}
	}
	if s.CapW == 0 {
		s.CapW = expt.DefaultGovernorCapW
	}
	if s.CapW < 0 {
		return fmt.Errorf("sweep: negative power cap %v", s.CapW)
	}
	switch s.Tier {
	case "":
		s.Tier = TierMesh
	case TierMesh, TierWiNoC:
	default:
		return fmt.Errorf("sweep: tier %q unknown (want %q or %q)", s.Tier, TierMesh, TierWiNoC)
	}
	if s.Sample < 0 {
		return fmt.Errorf("sweep: negative sample size %d", s.Sample)
	}
	if s.AnalyticTolerance == 0 {
		s.AnalyticTolerance = DefaultAnalyticTolerance
	}
	if s.AnalyticTolerance < 0 {
		return fmt.Errorf("sweep: negative analytic tolerance %v", s.AnalyticTolerance)
	}
	return nil
}

// weightTotal sums split weights; ok is false when a weight is not
// positive or the sum overflows int.
func weightTotal(weights []int) (total int, ok bool) {
	for _, w := range weights {
		if w <= 0 || w > math.MaxInt-total {
			return 0, false
		}
		total += w
	}
	return total, true
}

// splitSizes scales proportional weights to n cores with largest-remainder
// rounding, every island keeping at least one core. ok is false when the
// split cannot be realized on n cores (or a weight is not positive, or
// the weights overflow int when summed); with ok true every size is
// positive and the sizes sum to n.
func splitSizes(n int, weights []int) (sizes []int, ok bool) {
	m := len(weights)
	total, ok := weightTotal(weights)
	if n < m || !ok {
		return nil, false
	}
	sizes = make([]int, m)
	type rem struct {
		j    int
		frac float64
	}
	rems := make([]rem, m)
	assigned := 0
	for j, w := range weights {
		exact := float64(n) * float64(w) / float64(total)
		sizes[j] = int(exact)
		rems[j] = rem{j, exact - float64(sizes[j])}
		assigned += sizes[j]
	}
	sort.SliceStable(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].j < rems[b].j
	})
	for i := 0; assigned < n; i = (i + 1) % m {
		sizes[rems[i].j]++
		assigned++
	}
	// guarantee non-empty islands by stealing from the largest
	for j := range sizes {
		for sizes[j] == 0 {
			big, bigAt := 0, -1
			for k, sz := range sizes {
				if sz > big {
					big, bigAt = sz, k
				}
			}
			if big <= 1 {
				return nil, false
			}
			sizes[bigAt]--
			sizes[j]++
		}
	}
	return sizes, true
}

// equalSizes reports whether every entry equals the first.
func equalSizes(sizes []int) bool {
	for _, s := range sizes {
		if s != sizes[0] {
			return false
		}
	}
	return true
}

// Generate expands the spec into its scenario list: the full cross-product
// grid, feasibility-filtered, deduplicated by scenario key, and optionally
// subsampled. The result is deterministic for a given spec (including the
// sample seed) and independent of journal or cache state. skipped counts
// grid points dropped as infeasible (indivisible splits, workload shapes
// the apps model cannot build, WiNoC islands too small for their wireless
// interfaces).
func (s *Spec) Generate() (scenarios []Scenario, skipped int, err error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	seen := map[string]bool{}
	for _, mesh := range s.Meshes {
		rows, cols, err := parseMesh(mesh)
		if err != nil {
			return nil, 0, err
		}
		n := rows * cols
		for _, isl := range s.Islands {
			var sizes []int
			if len(isl.Split) > 0 && !equalSizes(isl.Split) {
				var ok bool
				sizes, ok = splitSizes(n, isl.Split)
				if !ok {
					skipped += len(s.Apps) * len(s.Margins) * len(s.Policies)
					continue
				}
				if equalSizes(sizes) {
					sizes = nil // rounding collapsed the skew; treat as equal
				}
			}
			if sizes == nil && n%isl.Count != 0 {
				skipped += len(s.Apps) * len(s.Margins) * len(s.Policies)
				continue
			}
			for _, app := range s.Apps {
				for _, margin := range s.Margins {
					for _, pol := range s.Policies {
						sc := Scenario{
							Rows:    rows,
							Cols:    cols,
							Islands: isl.Count,
							Sizes:   sizes,
							App:     app,
							Margin:  margin,
							Policy:  pol,
							Tier:    s.Tier,
						}
						if pol == "cap" {
							sc.CapW = s.CapW
						}
						if reason := sc.infeasible(); reason != "" {
							skipped++
							continue
						}
						key := sc.Key()
						if key == "" || seen[key] {
							skipped++
							continue
						}
						seen[key] = true
						scenarios = append(scenarios, sc)
					}
				}
			}
		}
	}
	if s.Sample > 0 && s.Sample < len(scenarios) {
		rng := rand.New(rand.NewSource(s.Seed))
		rng.Shuffle(len(scenarios), func(i, j int) {
			scenarios[i], scenarios[j] = scenarios[j], scenarios[i]
		})
		scenarios = scenarios[:s.Sample]
	}
	sort.Slice(scenarios, func(i, j int) bool { return scenarios[i].Key() < scenarios[j].Key() })
	return scenarios, skipped, nil
}
