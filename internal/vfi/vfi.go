// Package vfi implements the paper's VFI design flow (Fig. 3):
//
//  1. profile the application on the non-VFI baseline to obtain per-core
//     utilization u and the inter-core traffic matrix f (done upstream, the
//     profile arrives as a platform.Profile);
//  2. cluster the cores into m equal Voltage/Frequency Islands by solving
//     the 0-1 quadratic program of Eq. 1-2 (internal/qp);
//  3. pick one V/F operating point per island from the discrete DVFS table
//     ("VFI 1" in the paper);
//  4. detect bottleneck cores (master cores during library initialization,
//     surviving threads during Merge) and, for applications whose
//     utilization pattern is otherwise nearly homogeneous, raise the V/F of
//     the islands hosting them ("VFI 2").
//
// The per-island V/F selection rule is not spelled out in the paper ("the
// V/F design parameters are computed using a non-VFI system"); this package
// reconstructs it as
//
//	f_island = QuantizeUp(f_max · min(1, ū_island + margin))
//
// i.e. give every island enough frequency headroom above its mean
// utilization, then round up to the DVFS ladder. With the default margin of
// 0.35 this reproduces every row of the paper's Table 2 from the calibrated
// application profiles (see internal/apps and the Table 2 test).
package vfi

import (
	"fmt"
	"sort"

	"wivfi/internal/obs"
	"wivfi/internal/platform"
	"wivfi/internal/qp"
	"wivfi/internal/stats"
)

// MetricClusterCalls counts clustering solves (Cluster calls), the
// expensive step of Design. A design-cache hit reuses the stored
// clustering, and a margin-only variant of a design reuses its clustering
// through DesignClustered, so neither adds here.
const MetricClusterCalls = "vfi.cluster.calls"

var clusterCalls = obs.NewCounter(MetricClusterCalls)

// Options configures the design flow.
type Options struct {
	// NumIslands is m, the number of equal-size VFIs (paper: 4).
	NumIslands int
	// IslandSizes optionally prescribes unequal island sizes: island j gets
	// exactly IslandSizes[j] cores (islands ordered by ascending target
	// utilization). When set it must have NumIslands entries summing to the
	// core count; nil (the default and the paper's setting) keeps the equal
	// n/m split. The json tag keeps the zero value out of config hashes so
	// existing design-cache keys are unchanged.
	IslandSizes []int `json:",omitempty"`
	// Table is the DVFS ladder to quantize onto.
	Table []platform.OperatingPoint
	// FreqMargin is the utilization headroom added before quantizing the
	// island frequency.
	FreqMargin float64
	// Wc, Wu are the clustering objective weights ω_c and ω_u (paper: 1, 1).
	Wc, Wu float64
	// BottleneckRatio flags core i as a bottleneck when
	// u_i >= BottleneckRatio · mean(u).
	BottleneckRatio float64
	// HomogeneityCV is the coefficient-of-variation threshold below which a
	// utilization pattern counts as "nearly homogeneous", enabling the
	// VFI 2 re-assignment. Heterogeneous apps (Kmeans, Word Count) place
	// their bottleneck cores in high-V/F islands on their own.
	HomogeneityCV float64
	// MaxBottleneckFrac bounds how many cores may be flagged before the
	// situation stops being a "few bottleneck cores" (Section 4.2) and
	// re-assignment is skipped: if more than this fraction of the chip is
	// hot, the utilization pattern is simply heterogeneous.
	MaxBottleneckFrac float64
	// Anneal configures the heuristic QP solver used for n > 14.
	Anneal qp.AnnealOptions
}

// DefaultOptions returns the paper's configuration: four islands, the
// five-point DVFS ladder, ω_c = ω_u = 1, and the calibrated margin and
// bottleneck thresholds.
func DefaultOptions() Options {
	return Options{
		NumIslands:        4,
		Table:             platform.DefaultDVFSTable(),
		FreqMargin:        0.35,
		Wc:                1,
		Wu:                1,
		BottleneckRatio:   1.25,
		HomogeneityCV:     0.25,
		MaxBottleneckFrac: 0.1,
		Anneal:            qp.DefaultAnnealOptions(),
	}
}

// Plan is the outcome of the full design flow for one application profile.
type Plan struct {
	// VFI1 is the initial system: clustering plus first V/F assignment.
	VFI1 platform.VFIConfig
	// VFI2 is the final system after bottleneck-driven V/F re-assignment.
	// When no re-assignment is needed VFI2 equals VFI1.
	VFI2 platform.VFIConfig
	// Bottlenecks lists the detected bottleneck core ids (may be empty).
	Bottlenecks []int
	// RaisedIslands lists islands whose operating point was raised in VFI2.
	RaisedIslands []int
	// ClusterCost is the Eq. 1 objective value of the chosen clustering.
	ClusterCost float64
	// HomogeneousPattern reports whether the utilization pattern qualified
	// as nearly homogeneous (precondition for re-assignment).
	HomogeneousPattern bool
}

// BuildProblem translates a profile into the Eq. 1 instance: inputs are
// max-normalized and the target means ū_j are the m-quantile means of the
// normalized utilizations, exactly as Section 4.1 prescribes.
func BuildProblem(p platform.Profile, opts Options) (*qp.Problem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.NumCores()
	if opts.NumIslands <= 0 {
		return nil, fmt.Errorf("vfi: need a positive island count, got %d", opts.NumIslands)
	}
	normU := stats.NormalizeMax(p.Util)
	prob := &qp.Problem{
		N:    n,
		M:    opts.NumIslands,
		Comm: stats.NormalizeMatrixMax(p.Traffic),
		Util: normU,
		Wc:   opts.Wc,
		Wu:   opts.Wu,
	}
	if len(opts.IslandSizes) > 0 {
		if len(opts.IslandSizes) != opts.NumIslands {
			return nil, fmt.Errorf("vfi: %d island sizes for %d islands", len(opts.IslandSizes), opts.NumIslands)
		}
		total := 0
		for j, s := range opts.IslandSizes {
			if s <= 0 {
				return nil, fmt.Errorf("vfi: island %d has non-positive size %d", j, s)
			}
			total += s
		}
		if total != n {
			return nil, fmt.Errorf("vfi: island sizes sum to %d for %d cores", total, n)
		}
		prob.Sizes = append([]int(nil), opts.IslandSizes...)
		prob.TargetMeans = stats.GroupMeansBySizes(normU, opts.IslandSizes)
	} else {
		if n%opts.NumIslands != 0 {
			return nil, fmt.Errorf("vfi: %d cores not divisible into %d equal islands (set IslandSizes for an unequal split)", n, opts.NumIslands)
		}
		prob.TargetMeans = stats.QuartileMeans(normU, opts.NumIslands)
	}
	return prob, nil
}

// Cluster solves the clustering program and returns the core→island
// assignment and its objective value.
func Cluster(p platform.Profile, opts Options) ([]int, float64, error) {
	prob, err := BuildProblem(p, opts)
	if err != nil {
		return nil, 0, err
	}
	clusterCalls.Add(1)
	sol, err := qp.Solve(prob, opts.Anneal)
	if err != nil {
		return nil, 0, err
	}
	return canonicalize(sol.Assign, p.Util, opts.NumIslands), sol.Cost, nil
}

// canonicalize relabels islands by ascending mean utilization so that
// downstream reporting (Table 2 rows) is deterministic: island 0 is always
// the least-utilized island.
func canonicalize(assign []int, util []float64, m int) []int {
	sums := make([]float64, m)
	counts := make([]int, m)
	for core, isl := range assign {
		sums[isl] += util[core]
		counts[isl]++
	}
	order := make([]int, m)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		ma := sums[order[a]] / float64(counts[order[a]])
		mb := sums[order[b]] / float64(counts[order[b]])
		return ma < mb
	})
	relabel := make([]int, m)
	for newLabel, old := range order {
		relabel[old] = newLabel
	}
	out := make([]int, len(assign))
	for core, isl := range assign {
		out[core] = relabel[isl]
	}
	return out
}

// AssignVF applies the reconstructed selection rule to each island: quantize
// f_max·min(1, ū+margin) up onto the DVFS ladder and take that point's
// voltage with it.
func AssignVF(p platform.Profile, assign []int, opts Options) []platform.OperatingPoint {
	m := opts.NumIslands
	fmax := platform.MaxPoint(opts.Table).FreqGHz
	sums := make([]float64, m)
	counts := make([]int, m)
	for core, isl := range assign {
		sums[isl] += p.Util[core]
		counts[isl]++
	}
	points := make([]platform.OperatingPoint, m)
	for j := 0; j < m; j++ {
		mean := sums[j] / float64(counts[j])
		target := mean + opts.FreqMargin
		if target > 1 {
			target = 1
		}
		points[j] = platform.QuantizeUp(opts.Table, fmax*target)
	}
	return points
}

// DetectBottlenecks returns the ids of cores whose utilization is at least
// ratio times the chip-wide mean, sorted ascending. These are the master
// cores active through library initialization and the surviving threads of
// the Merge sub-stages (Section 4.2).
func DetectBottlenecks(util []float64, ratio float64) []int {
	mean := stats.Mean(util)
	var out []int
	for i, u := range util {
		if u >= ratio*mean {
			out = append(out, i)
		}
	}
	return out
}

// IsHomogeneous reports whether the utilization pattern counts as nearly
// homogeneous once the bottleneck cores themselves are excluded: the paper's
// PCA/HIST/MM have flat utilization apart from a handful of hot masters.
func IsHomogeneous(util []float64, bottlenecks []int, cvThreshold float64) bool {
	isB := make(map[int]bool, len(bottlenecks))
	for _, b := range bottlenecks {
		isB[b] = true
	}
	rest := make([]float64, 0, len(util))
	for i, u := range util {
		if !isB[i] {
			rest = append(rest, u)
		}
	}
	if len(rest) == 0 {
		return false
	}
	mean := stats.Mean(rest)
	if mean == 0 {
		return false
	}
	return stats.StdDev(rest)/mean <= cvThreshold
}

// Reassign produces the VFI 2 configuration: when the application pattern is
// nearly homogeneous and bottleneck cores sit in islands below the table
// maximum, those islands are raised to the maximum point (the paper raises
// 0.9 V/2.25 GHz clusters to 1.0 V/2.5 GHz). Core↔island placement is never
// changed, preserving the traffic patterns (Section 4.2).
func Reassign(cfg platform.VFIConfig, p platform.Profile, opts Options) (platform.VFIConfig, []int, []int, bool) {
	bottlenecks := DetectBottlenecks(p.Util, opts.BottleneckRatio)
	homog := IsHomogeneous(p.Util, bottlenecks, opts.HomogeneityCV)
	out := cfg.Clone()
	var raised []int
	maxB := int(opts.MaxBottleneckFrac * float64(p.NumCores()))
	if maxB < 1 {
		maxB = 1 // even the smallest chip can have one hot master
	}
	if len(bottlenecks) == 0 || len(bottlenecks) > maxB || !homog {
		return out, bottlenecks, raised, homog
	}
	maxPt := platform.MaxPoint(opts.Table)
	seen := make(map[int]bool)
	for _, b := range bottlenecks {
		isl := cfg.Assign[b]
		if seen[isl] {
			continue
		}
		seen[isl] = true
		if cfg.Points[isl].FreqGHz < maxPt.FreqGHz {
			out.Points[isl] = maxPt
			raised = append(raised, isl)
		}
	}
	sort.Ints(raised)
	return out, bottlenecks, raised, homog
}

// Design runs the complete Fig. 3 flow on one profile: Cluster, then
// DesignClustered.
func Design(p platform.Profile, opts Options) (Plan, error) {
	assign, cost, err := Cluster(p, opts)
	if err != nil {
		return Plan{}, err
	}
	return DesignClustered(p, assign, cost, opts)
}

// DesignClustered runs the flow's steps after clustering on Cluster's
// result (assign, cost): V/F assignment and bottleneck re-assignment. The
// clustering reads neither FreqMargin, Table nor the bottleneck
// thresholds, so a plan's own VFI1.Assign and ClusterCost serve every
// variant of its options that differs only there.
func DesignClustered(p platform.Profile, assign []int, cost float64, opts Options) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if len(assign) != p.NumCores() {
		return Plan{}, fmt.Errorf("vfi: %d assignments for %d cores", len(assign), p.NumCores())
	}
	for core, isl := range assign {
		if isl < 0 || isl >= opts.NumIslands {
			return Plan{}, fmt.Errorf("vfi: core %d in island %d of %d", core, isl, opts.NumIslands)
		}
	}
	vfi1 := platform.VFIConfig{Assign: assign, Points: AssignVF(p, assign, opts)}
	if err := vfi1.Validate(); err != nil {
		return Plan{}, fmt.Errorf("vfi: invalid VFI1 config: %w", err)
	}
	vfi2, bottlenecks, raised, homog := Reassign(vfi1, p, opts)
	return Plan{
		VFI1:               vfi1,
		VFI2:               vfi2,
		Bottlenecks:        bottlenecks,
		RaisedIslands:      raised,
		ClusterCost:        cost,
		HomogeneousPattern: homog,
	}, nil
}
