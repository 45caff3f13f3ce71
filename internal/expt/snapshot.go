package expt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"wivfi/internal/fidelity"
	"wivfi/internal/obs"
	"wivfi/internal/platform"
)

// Study parameters of the wifail and margins sections, exported for
// callers that run those studies directly.
var (
	// DefaultWIFailureApp / DefaultWIFailures parameterize the
	// wireless-interface robustness extension.
	DefaultWIFailureApp = "wc"
	DefaultWIFailures   = []int{0, 3, 6, 12}
	// DefaultMarginApp / DefaultMargins parameterize the V/F-margin
	// sensitivity sweep; 0.35 is the Table 2 operating point.
	DefaultMarginApp = "kmeans"
	DefaultMargins   = []float64{0.15, 0.25, 0.35, 0.45, 0.65}
)

// GHzMultiset renders an island frequency multiset as a canonical
// ascending-sorted label like "2.25 2.25 2.5 2.5" — the categorical form
// Table 2 checks compare against the paper.
func GHzMultiset(points []platform.OperatingPoint) string {
	fs := make([]float64, 0, len(points))
	for _, p := range points {
		fs = append(fs, p.FreqGHz)
	}
	return ghzLabel(fs)
}

func ghzLabel(fs []float64) string {
	sorted := append([]float64(nil), fs...)
	sort.Float64s(sorted)
	parts := make([]string, len(sorted))
	for i, f := range sorted {
		parts[i] = strconv.FormatFloat(f, 'g', -1, 64)
	}
	return strings.Join(parts, " ")
}

func pointsLabel(points []platform.OperatingPoint) string {
	parts := make([]string, len(points))
	for i, p := range points {
		parts[i] = p.String()
	}
	return strings.Join(parts, " ")
}

// CollectSnapshot serializes every section of the reproduction into one
// fidelity.Snapshot keyed by the suite's configuration hash. A section
// already computed (passed in computed, matched by ID) is reused as is;
// the rest run together through RunSections. It never writes to stdout,
// so collecting a snapshot after rendering the text output leaves that
// output byte-identical.
func CollectSnapshot(s *Suite, computed ...fidelity.Section) (*fidelity.Snapshot, error) {
	defer obs.StartSpan("snapshot", "collect").End()
	snap := &fidelity.Snapshot{
		Schema:     fidelity.SchemaVersion,
		Tool:       "reproduce",
		ConfigHash: ConfigHash(s.Config),
	}
	done := make(map[string]fidelity.Section, len(computed))
	for _, sec := range computed {
		done[sec.ID] = sec
	}
	all := snapshotSections()
	var missing []Section
	for _, sec := range all {
		if _, ok := done[sec.ID]; !ok {
			missing = append(missing, sec)
		}
	}
	n := 0 // sections of missing emitted; missing[n] is the one that failed
	err := s.RunSections(missing, func(sec Section, _ string, fsec fidelity.Section) {
		done[sec.ID] = fsec
		n++
	})
	if err != nil {
		return nil, fmt.Errorf("expt: snapshot section %s: %w", missing[n].ID, err)
	}
	for _, sec := range all {
		snap.Sections = append(snap.Sections, done[sec.ID])
	}
	return snap, nil
}

func table1Section(rows []Table1Row) fidelity.Section {
	sec := fidelity.Section{ID: "table1", Title: "Table 1. Applications and datasets"}
	for _, r := range rows {
		sec.Rows = append(sec.Rows, fidelity.Row{
			Key:    r.App,
			Labels: map[string]string{"dataset": r.Dataset},
		})
	}
	return sec
}

func table2Section(rows []Table2Row) fidelity.Section {
	sec := fidelity.Section{ID: "table2", Title: "Table 2. V/F assignments"}
	for _, r := range rows {
		sec.Rows = append(sec.Rows, fidelity.Row{
			Key:    r.App,
			Values: map[string]float64{"raised": float64(len(r.Raised))},
			Labels: map[string]string{
				// canonical cluster order, full V/F points
				"vfi1": pointsLabel(r.VFI1),
				"vfi2": pointsLabel(r.VFI2),
				// ascending frequency multisets, the paper-check form
				"vfi1_ghz": GHzMultiset(r.VFI1),
				"vfi2_ghz": GHzMultiset(r.VFI2),
			},
		})
	}
	return sec
}

func fig2Section(rows []Fig2Row) fidelity.Section {
	sec := fidelity.Section{ID: "fig2", Title: "Fig. 2. Core utilization distributions"}
	for _, r := range rows {
		sec.Rows = append(sec.Rows, fidelity.Row{
			Key: r.App,
			Values: map[string]float64{
				"average": r.Average,
				"max":     r.Sorted[0],
				"min":     r.Sorted[len(r.Sorted)-1],
			},
			Series: append([]float64(nil), r.Sorted...),
		})
	}
	return sec
}

func fig4Section(rows []Fig4Row) fidelity.Section {
	sec := fidelity.Section{ID: "fig4", Title: "Fig. 4. VFI 1 vs VFI 2 (vs NVFI mesh)"}
	for _, r := range rows {
		sec.Rows = append(sec.Rows, fidelity.Row{
			Key: r.App,
			Values: map[string]float64{
				"exec_vfi1": r.ExecVFI1,
				"exec_vfi2": r.ExecVFI2,
				"edp_vfi1":  r.EDPVFI1,
				"edp_vfi2":  r.EDPVFI2,
			},
		})
	}
	return sec
}

func fig5Section(rows []Fig5Row) fidelity.Section {
	sec := fidelity.Section{ID: "fig5", Title: "Fig. 5. Average vs bottleneck utilization"}
	for _, r := range rows {
		sec.Rows = append(sec.Rows, fidelity.Row{
			Key: r.App,
			Values: map[string]float64{
				"avg_util":        r.AverageUtil,
				"bottleneck_util": r.BottleneckUtil,
				"ratio":           r.BottleneckUtil / r.AverageUtil,
			},
		})
	}
	return sec
}

func fig6Section(rows []Fig6Row) fidelity.Section {
	sec := fidelity.Section{ID: "fig6", Title: "Fig. 6. Placement strategy network EDP ratio"}
	for _, r := range rows {
		sec.Rows = append(sec.Rows, fidelity.Row{
			Key: r.App,
			Values: map[string]float64{
				"ratio":        r.Ratio,
				"wireless_edp": r.WirelessEDP,
				"min_hop_edp":  r.MinHopEDP,
			},
		})
	}
	return sec
}

func fig7Section(rows []Fig7Row) fidelity.Section {
	sec := fidelity.Section{ID: "fig7", Title: "Fig. 7. Execution-time breakdown (vs NVFI mesh)"}
	for _, r := range rows {
		sec.Rows = append(sec.Rows, fidelity.Row{
			Key: r.App + "/" + r.System,
			Values: map[string]float64{
				"map":     r.Map,
				"reduce":  r.Reduce,
				"merge":   r.Merge,
				"libinit": r.LibInit,
				"total":   r.Total,
			},
		})
	}
	return sec
}

func fig8Section(rows []Fig8Row) fidelity.Section {
	sec := fidelity.Section{ID: "fig8", Title: "Fig. 8. Full-system EDP (vs NVFI mesh)"}
	for _, r := range rows {
		sec.Rows = append(sec.Rows, fidelity.Row{
			Key: r.App,
			Values: map[string]float64{
				"edp_mesh":   r.EDPMesh,
				"edp_winoc":  r.EDPWiNoC,
				"exec_mesh":  r.ExecMesh,
				"exec_winoc": r.ExecWiNoC,
			},
			Labels: map[string]string{"strategy": r.Strategy},
		})
	}
	return sec
}

func kintraSection(rows []KIntraRow) fidelity.Section {
	sec := fidelity.Section{ID: "kintra", Title: "Section 7.2: (3,1) vs (2,2) small-world degree"}
	for _, r := range rows {
		sec.Rows = append(sec.Rows, fidelity.Row{
			Key: r.App,
			Values: map[string]float64{
				"edp31":  r.EDP31,
				"edp22":  r.EDP22,
				"exec31": r.Exec31,
				"exec22": r.Exec22,
			},
		})
	}
	return sec
}

func stealingSection(st StealingStudy) fidelity.Section {
	sec := fidelity.Section{ID: "stealing", Title: "Section 4.3: Word Count task-stealing case study"}
	sec.Rows = append(sec.Rows, fidelity.Row{
		Key: "wc",
		Values: map[string]float64{
			"f1_min": st.F1Min, "f1_max": st.F1Max, "f1_avg": st.F1Avg,
			"f2_min": st.F2Min, "f2_max": st.F2Max, "f2_avg": st.F2Avg,
			"nf":               float64(st.Nf),
			"makespan_nosteal": st.MakespanNoSteal,
			"makespan_default": st.MakespanDefault,
			"makespan_capped":  st.MakespanCapped,
			"default_steals":   float64(st.DefaultSteals),
			"capped_steals":    float64(st.CappedSteals),
		},
	})
	return sec
}

func phasedSection(rows []PhasedRow) fidelity.Section {
	sec := fidelity.Section{ID: "phased", Title: "Extension: phase-adaptive DVFS controllers"}
	for _, r := range rows {
		sec.Rows = append(sec.Rows, fidelity.Row{
			Key: r.App,
			Values: map[string]float64{
				"edp_static":   r.StaticEDP,
				"edp_mean":     r.MeanEDP,
				"edp_maxcore":  r.MaxCoreEDP,
				"exec_static":  r.ExecStatic,
				"exec_mean":    r.ExecMean,
				"exec_maxcore": r.ExecMaxCore,
				"transitions":  float64(r.Transitions),
			},
		})
	}
	return sec
}

func governorSection(rows []GovernorRow) fidelity.Section {
	sec := fidelity.Section{ID: "governor", Title: "Extension: closed-loop DVFS governor"}
	for _, r := range rows {
		sec.Rows = append(sec.Rows, fidelity.Row{
			Key: r.App,
			Values: map[string]float64{
				"edp_static":         r.StaticEDP,
				"edp_util":           r.UtilEDP,
				"edp_cap":            r.CapEDP,
				"exec_static":        r.ExecStatic,
				"exec_util":          r.ExecUtil,
				"exec_cap":           r.ExecCap,
				"transitions_util":   float64(r.UtilTransitions),
				"transitions_cap":    float64(r.CapTransitions),
				"sheds":              float64(r.Sheds),
				"violations":         float64(r.Violations),
				"max_power_static_w": r.MaxPowerStaticW,
				"max_power_util_w":   r.MaxPowerUtilW,
				"max_power_cap_w":    r.MaxPowerCapW,
				"worst_case_cap_w":   r.WorstCaseCapW,
				"cap_w":              r.CapW,
			},
		})
	}
	return sec
}

func wifailSection(rows []WIFailureRow) fidelity.Section {
	sec := fidelity.Section{ID: "wifail", Title: "Extension: wireless-interface failure robustness"}
	for _, r := range rows {
		sec.Rows = append(sec.Rows, fidelity.Row{
			Key: fmt.Sprintf("%s/%d", r.App, r.FailedWIs),
			Values: map[string]float64{
				"exec_ratio": r.ExecRatio,
				"edp_ratio":  r.EDPRatio,
			},
		})
	}
	return sec
}

func marginsSection(rows []MarginRow) fidelity.Section {
	sec := fidelity.Section{ID: "margins", Title: "Sensitivity: V/F-selection margin"}
	for _, r := range rows {
		sec.Rows = append(sec.Rows, fidelity.Row{
			Key: fmt.Sprintf("%s/%.2f", r.App, r.Margin),
			Values: map[string]float64{
				"exec_ratio": r.ExecRatio,
				"edp_ratio":  r.EDPRatio,
			},
			Labels: map[string]string{"islands_ghz": ghzLabel(r.Freqs)},
			Series: append([]float64(nil), r.Freqs...),
		})
	}
	return sec
}

func summarySection(sum Summary) fidelity.Section {
	sec := fidelity.Section{ID: "summary", Title: "Headline numbers (abstract)"}
	sec.Rows = append(sec.Rows, fidelity.Row{
		Key: "headline",
		Values: map[string]float64{
			"avg_edp_saving_pct":   sum.AvgEDPSavingPct,
			"max_edp_saving_pct":   sum.MaxEDPSavingPct,
			"max_exec_penalty_pct": sum.MaxExecPenaltyPct,
		},
		Labels: map[string]string{
			"max_edp_saving_app":   sum.MaxEDPSavingApp,
			"max_exec_penalty_app": sum.MaxExecPenaltyApp,
		},
	})
	return sec
}
