package fidelity

import (
	"fmt"
	"html/template"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wivfi/internal/obs"
	"wivfi/internal/timeline"
)

// ReportData bundles everything one run report renders: the snapshot, the
// evaluated scoreboard, the optional baseline diff, the optional run
// manifest (stage timings, counters, cache outcomes) and the optional
// time-resolved timeline set (phase strips, link heatmap, latency
// histogram).
type ReportData struct {
	Title        string
	Snapshot     *Snapshot
	Results      []Result
	Diff         *DiffReport
	BaselinePath string
	Manifest     *obs.Manifest
	Timelines    *timeline.Set
}

// WriteReport renders the run report to path; the extension picks the
// format (.md / .markdown renders markdown, anything else the
// self-contained HTML page).
func WriteReport(path string, d ReportData) error {
	var blob []byte
	switch strings.ToLower(filepath.Ext(path)) {
	case ".md", ".markdown":
		blob = []byte(renderMarkdown(d))
	default:
		html, err := renderHTML(d)
		if err != nil {
			return fmt.Errorf("fidelity: rendering report: %w", err)
		}
		blob = html
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("fidelity: writing report: %w", err)
	}
	return nil
}

// ---- Markdown -------------------------------------------------------------

// sparkGlyphs renders a series as a unicode sparkline, scaled to its own
// min/max.
func sparkGlyphs(series []float64) string {
	if len(series) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	lo, hi := series[0], series[0]
	for _, v := range series {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range series {
		b.WriteRune(glyphs[int(unitScale(v, lo, hi)*float64(len(glyphs)-1))])
	}
	return b.String()
}

// unitScale maps v in [lo, hi] onto [0, 1], or 0 when the range is empty.
// It halves every operand first (exact for normal floats), so the span of
// two extreme finite values cannot overflow to +Inf and turn the ratio
// into NaN.
func unitScale(v, lo, hi float64) float64 {
	span := hi/2 - lo/2
	if span <= 0 {
		return 0
	}
	return (v/2 - lo/2) / span
}

func renderMarkdown(d ReportData) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n\n", d.Title)
	if d.Snapshot != nil {
		fmt.Fprintf(&b, "Config `%s`, snapshot schema %d.\n\n", d.Snapshot.ConfigHash, d.Snapshot.Schema)
	}

	if len(d.Results) > 0 {
		t := Count(d.Results)
		fmt.Fprintf(&b, "## Paper-fidelity scoreboard — %d pass / %d warn / %d fail\n\n", t.Pass, t.Warn, t.Fail)
		b.WriteString("| verdict | check | metric | result |\n|---|---|---|---|\n")
		for _, r := range d.Results {
			fmt.Fprintf(&b, "| %s | %s | `%s` | %s |\n", verdictBadge(r.Verdict), r.Detail, r.Addr(), r.Note)
		}
		b.WriteString("\n")
	}

	if d.Diff != nil {
		fmt.Fprintf(&b, "## Baseline diff — %s\n\n", diffHeadline(d.Diff))
		if d.BaselinePath != "" {
			fmt.Fprintf(&b, "Baseline: `%s` (config `%s`).\n\n", d.BaselinePath, d.Diff.BaselineConfigHash)
		}
		if len(d.Diff.Findings) > 0 {
			b.WriteString("| kind | metric | change |\n|---|---|---|\n")
			for _, f := range d.Diff.Findings {
				fmt.Fprintf(&b, "| %s | `%s` | %s |\n", f.Kind, f.Address, diffChange(f))
			}
			b.WriteString("\n")
		}
	}

	if d.Snapshot != nil {
		b.WriteString("## Sections\n\n")
		for _, sec := range d.Snapshot.Sections {
			fmt.Fprintf(&b, "### %s\n\n", sec.Title)
			cols := sectionColumns(sec)
			hasSeries := sectionHasSeries(sec)
			b.WriteString("| row |")
			for _, c := range cols {
				b.WriteString(" " + c + " |")
			}
			if hasSeries {
				b.WriteString(" series |")
			}
			b.WriteString("\n|---|")
			b.WriteString(strings.Repeat("---|", len(cols)))
			if hasSeries {
				b.WriteString("---|")
			}
			b.WriteString("\n")
			for _, row := range sec.Rows {
				fmt.Fprintf(&b, "| %s |", rowLabel(row))
				for _, c := range cols {
					if v, ok := row.Values[c]; ok {
						fmt.Fprintf(&b, " %.4g |", v)
					} else {
						b.WriteString(" — |")
					}
				}
				if hasSeries {
					fmt.Fprintf(&b, " %s |", sparkGlyphs(row.Series))
				}
				b.WriteString("\n")
			}
			b.WriteString("\n")
		}
	}

	if d.Timelines != nil {
		b.WriteString(timelineMarkdown(d.Timelines))
	}

	if d.Manifest != nil {
		b.WriteString(manifestMarkdown(d.Manifest))
	}
	return b.String()
}

func verdictBadge(v Verdict) string {
	switch v {
	case Pass:
		return "✅ pass"
	case Warn:
		return "⚠️ warn"
	default:
		return "❌ fail"
	}
}

func diffHeadline(d *DiffReport) string {
	if d.Clean() {
		return fmt.Sprintf("clean (%d metrics compared)", d.Compared)
	}
	n := len(d.Regressions())
	s := fmt.Sprintf("%d regression(s) over %d metrics", n, d.Compared)
	if d.ConfigMismatch {
		s += fmt.Sprintf("; CONFIG MISMATCH %s vs %s", d.CurrentConfigHash, d.BaselineConfigHash)
	}
	return s
}

func diffChange(f Finding) string {
	switch f.Kind {
	case Changed:
		return fmt.Sprintf("%.6g → %.6g (%+.3g%%)", f.Old, f.New, 100*f.RelDelta)
	case LabelChanged:
		return fmt.Sprintf("%q → %q", f.OldLabel, f.NewLabel)
	default:
		return f.Note
	}
}

// rowLabel renders a row's key plus any labels.
func rowLabel(r Row) string {
	s := r.Key
	for _, k := range sortedKeys(r.Labels) {
		s += fmt.Sprintf(" %s=%s", k, r.Labels[k])
	}
	return s
}

// sectionColumns returns the union of value names in a section, sorted.
func sectionColumns(sec Section) []string {
	set := map[string]bool{}
	for _, r := range sec.Rows {
		for k := range r.Values {
			set[k] = true
		}
	}
	cols := make([]string, 0, len(set))
	for k := range set {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	return cols
}

func sectionHasSeries(sec Section) bool {
	for _, r := range sec.Rows {
		if len(r.Series) > 0 {
			return true
		}
	}
	return false
}

func manifestMarkdown(m *obs.Manifest) string {
	var b strings.Builder
	b.WriteString("## Run manifest\n\n")
	fmt.Fprintf(&b, "`%s` with %d job(s), wall %.0f ms", m.Command, m.Jobs, m.WallMS)
	if m.Cache != nil {
		fmt.Fprintf(&b, "; design cache %d hit(s) / %d miss(es) / %d corrupt evicted",
			m.Cache.Hits, m.Cache.Misses, m.Cache.CorruptEvicted)
	}
	b.WriteString(".\n\n")
	if len(m.Stages) > 0 {
		b.WriteString("| stage | count | total ms | min ms | max ms |\n|---|---|---|---|---|\n")
		for _, s := range m.Stages {
			fmt.Fprintf(&b, "| %s | %d | %.1f | %.2f | %.2f |\n", s.Name, s.Count, s.TotalMS, s.MinMS, s.MaxMS)
		}
		b.WriteString("\n")
	}
	if len(m.Counters) > 0 {
		b.WriteString("| counter | total |\n|---|---|\n")
		for _, k := range sortedKeys(m.Counters) {
			fmt.Fprintf(&b, "| %s | %d |\n", k, m.Counters[k])
		}
		b.WriteString("\n")
	}
	if len(m.Histograms) > 0 {
		b.WriteString("| histogram | count | min | p50 | p95 | p99 | max |\n|---|---|---|---|---|---|---|\n")
		for _, h := range m.Histograms {
			fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %d |\n", h.Name, h.Count, h.Min, h.P50, h.P95, h.P99, h.Max)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---- HTML -----------------------------------------------------------------

// sparkSVG renders a series as a small inline SVG polyline.
func sparkSVG(series []float64) template.HTML {
	if len(series) == 0 {
		return ""
	}
	const w, h = 128.0, 24.0
	lo, hi := series[0], series[0]
	for _, v := range series {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	var pts strings.Builder
	for i, v := range series {
		x := w * float64(i) / float64(max(len(series)-1, 1))
		y := h - 2
		if hi > lo {
			y = (h-4)*(1-unitScale(v, lo, hi)) + 2
		}
		fmt.Fprintf(&pts, "%.1f,%.1f ", x, y)
	}
	svg := fmt.Sprintf(
		`<svg class="spark" width="%d" height="%d" viewBox="0 0 %d %d"><polyline points="%s" fill="none" stroke="#4063d8" stroke-width="1.5"/></svg>`,
		int(w), int(h), int(w), int(h), strings.TrimSpace(pts.String()))
	return template.HTML(svg)
}

// bar renders a value as a horizontal mini-bar scaled to the column max.
func bar(v, colMax float64) template.HTML {
	if colMax <= 0 || v < 0 {
		return ""
	}
	pct := 100 * v / colMax
	return template.HTML(fmt.Sprintf(`<span class="bar" style="width:%.0f%%"></span>`, math.Min(pct, 100)))
}

var htmlTmpl = template.Must(template.New("report").Funcs(template.FuncMap{
	"spark":   sparkSVG,
	"badge":   verdictBadge,
	"change":  diffChange,
	"rowname": rowLabel,
	"num":     func(v float64) string { return fmt.Sprintf("%.4g", v) },
}).Parse(`<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>{{.Title}}</title>
<style>
  body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; padding: 0 1rem; color: #1a1a1a; }
  h1 { font-size: 1.5rem; } h2 { font-size: 1.2rem; margin-top: 2rem; } h3 { font-size: 1rem; margin-top: 1.4rem; }
  table { border-collapse: collapse; width: 100%; margin: .6rem 0; }
  th, td { text-align: left; padding: .25rem .6rem; border-bottom: 1px solid #e4e4e4; vertical-align: top; }
  th { background: #f6f6f6; font-weight: 600; }
  td.n { text-align: right; font-variant-numeric: tabular-nums; white-space: nowrap; }
  code { background: #f2f2f2; padding: 0 .25rem; border-radius: 3px; font-size: .92em; }
  .pass { color: #1a7f37; } .warn { color: #9a6700; } .fail { color: #cf222e; font-weight: 600; }
  .summary { display: flex; gap: 1.2rem; margin: .8rem 0; }
  .tile { border: 1px solid #e4e4e4; border-radius: 6px; padding: .6rem 1rem; }
  .tile b { display: block; font-size: 1.4rem; }
  .bar { display: inline-block; height: .55em; background: #aec3f2; margin-right: .3em; border-radius: 2px; }
  .cell { display: flex; align-items: center; justify-content: flex-end; gap: .3em; }
  .cell .bar { margin: 0; }
  svg.spark { vertical-align: middle; }
  .muted { color: #6e6e6e; }
  .key { display: inline-block; width: .8em; height: .8em; border-radius: 2px; vertical-align: -.1em; margin-left: .6em; }
</style></head><body>
<h1>{{.Title}}</h1>
{{if .Snapshot}}<p class="muted">Config <code>{{.Snapshot.ConfigHash}}</code> · snapshot schema {{.Snapshot.Schema}}</p>{{end}}

{{if .Results}}
<h2>Paper-fidelity scoreboard</h2>
<div class="summary">
  <div class="tile"><b class="pass">{{.Tally.Pass}}</b>pass</div>
  <div class="tile"><b class="warn">{{.Tally.Warn}}</b>warn</div>
  <div class="tile"><b class="fail">{{.Tally.Fail}}</b>fail</div>
</div>
<table><tr><th>verdict</th><th>check</th><th>metric</th><th>result</th></tr>
{{range .Results}}<tr><td class="{{.Verdict}}">{{badge .Verdict}}</td><td>{{.Detail}}</td><td><code>{{.Addr}}</code></td><td>{{.Note}}</td></tr>
{{end}}</table>
{{end}}

{{if .Diff}}
<h2>Baseline diff</h2>
<p>{{.DiffHeadline}}{{if .BaselinePath}} — baseline <code>{{.BaselinePath}}</code>{{end}}</p>
{{if .Diff.Findings}}
<table><tr><th>kind</th><th>metric</th><th>change</th></tr>
{{range .Diff.Findings}}<tr><td>{{.Kind}}</td><td><code>{{.Address}}</code></td><td>{{change .}}</td></tr>
{{end}}</table>
{{end}}
{{end}}

{{if .Snapshot}}
<h2>Figures and tables</h2>
{{range .SectionViews}}
<h3>{{.Title}}</h3>
<table><tr><th>row</th>{{range .Cols}}<th>{{.}}</th>{{end}}{{if .HasSeries}}<th>curve</th>{{end}}</tr>
{{range .Rows}}<tr><td>{{rowname .Row}}</td>{{range .Cells}}<td class="n">{{if .Present}}<span class="cell">{{.Bar}}<span>{{num .Value}}</span></span>{{else}}—{{end}}</td>{{end}}{{if .HasSeries}}<td>{{spark .Row.Series}}</td>{{end}}</tr>
{{end}}</table>
{{end}}
{{end}}

{{if .TimelineViews}}
<h2>Timelines</h2>
{{range .TimelineViews}}
<h3>{{.App}}</h3>
{{if .Strips}}
<p class="muted">Worker phase strips — {{.StripNote}}.
{{range .Legend}}<span class="key" style="background:{{.Color}}"></span> {{.State}} {{end}}</p>
{{.Strips}}
{{end}}
{{if .Heatmap}}
<p class="muted">Link heatmap — {{.HeatmapNote}}.</p>
{{.Heatmap}}
{{end}}
{{if .Histogram}}
<p class="muted">Packet latency — {{.HistNote}}.</p>
{{.Histogram}}
{{end}}
{{if .Sparks}}
<table><tr><th>series</th><th>unit</th><th>curve</th></tr>
{{range .Sparks}}<tr><td><code>{{.Name}}</code></td><td>{{.Unit}}</td><td>{{.Spark}}</td></tr>
{{end}}</table>
{{end}}
{{end}}
{{end}}

{{if .Manifest}}
<h2>Run manifest</h2>
<p><code>{{.Manifest.Command}}</code> · {{.Manifest.Jobs}} job(s) · wall {{printf "%.0f" .Manifest.WallMS}} ms{{if .Manifest.Cache}} · design cache {{.Manifest.Cache.Hits}} hit(s) / {{.Manifest.Cache.Misses}} miss(es) / {{.Manifest.Cache.CorruptEvicted}} corrupt evicted{{end}}</p>
{{if .Manifest.Stages}}
<table><tr><th>stage</th><th>count</th><th>total ms</th><th>min ms</th><th>max ms</th></tr>
{{range .Manifest.Stages}}<tr><td>{{.Name}}</td><td class="n">{{.Count}}</td><td class="n">{{printf "%.1f" .TotalMS}}</td><td class="n">{{printf "%.2f" .MinMS}}</td><td class="n">{{printf "%.2f" .MaxMS}}</td></tr>
{{end}}</table>
{{end}}
{{if .CounterRows}}
<table><tr><th>counter</th><th>total</th></tr>
{{range .CounterRows}}<tr><td>{{.Name}}</td><td class="n">{{.Value}}</td></tr>
{{end}}</table>
{{end}}
{{if .Manifest.Histograms}}
<table><tr><th>histogram</th><th>count</th><th>min</th><th>p50</th><th>p95</th><th>p99</th><th>max</th></tr>
{{range .Manifest.Histograms}}<tr><td>{{.Name}}</td><td class="n">{{.Count}}</td><td class="n">{{.Min}}</td><td class="n">{{.P50}}</td><td class="n">{{.P95}}</td><td class="n">{{.P99}}</td><td class="n">{{.Max}}</td></tr>
{{end}}</table>
{{end}}
{{end}}
</body></html>
`))

// cellView is one rendered numeric cell.
type cellView struct {
	Present bool
	Value   float64
	Bar     template.HTML
}

type rowView struct {
	Row       Row
	Cells     []cellView
	HasSeries bool
}

type sectionView struct {
	Title     string
	Cols      []string
	HasSeries bool
	Rows      []rowView
}

type counterRow struct {
	Name  string
	Value int64
}

type htmlData struct {
	ReportData
	Tally         Tally
	DiffHeadline  string
	SectionViews  []sectionView
	CounterRows   []counterRow
	TimelineViews []timelineView
}

func renderHTML(d ReportData) ([]byte, error) {
	hd := htmlData{ReportData: d, Tally: Count(d.Results)}
	if d.Diff != nil {
		hd.DiffHeadline = diffHeadline(d.Diff)
	}
	if d.Snapshot != nil {
		for _, sec := range d.Snapshot.Sections {
			cols := sectionColumns(sec)
			sv := sectionView{Title: sec.Title, Cols: cols, HasSeries: sectionHasSeries(sec)}
			// column maxima scale the mini-bars
			colMax := map[string]float64{}
			for _, r := range sec.Rows {
				//lint:ordered math.Max is commutative and exact — no rounding drift from iteration order
				for k, v := range r.Values {
					colMax[k] = math.Max(colMax[k], v)
				}
			}
			for _, r := range sec.Rows {
				rv := rowView{Row: r, HasSeries: sv.HasSeries}
				for _, c := range cols {
					v, ok := r.Values[c]
					cell := cellView{Present: ok, Value: v}
					if ok {
						cell.Bar = bar(v, colMax[c])
					}
					rv.Cells = append(rv.Cells, cell)
				}
				sv.Rows = append(sv.Rows, rv)
			}
			hd.SectionViews = append(hd.SectionViews, sv)
		}
	}
	if d.Manifest != nil {
		for _, k := range sortedKeys(d.Manifest.Counters) {
			hd.CounterRows = append(hd.CounterRows, counterRow{Name: k, Value: d.Manifest.Counters[k]})
		}
	}
	hd.TimelineViews = timelineViews(d.Timelines)
	var b strings.Builder
	if err := htmlTmpl.Execute(&b, hd); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}
