package expt

import (
	"runtime/debug"
	"sync"

	"wivfi/internal/fidelity"
	"wivfi/internal/obs"
	"wivfi/internal/sim"
)

// Section is one figure, table or study of the reproduction, declared once.
// cmd/reproduce builds its flag and printed block from it, CollectSnapshot
// its snapshot section and the golden tests their file; both of the first
// two run it through RunSections.
type Section struct {
	// ID is the section's flag name, snapshot section id and golden file
	// name (testdata/<ID>.golden).
	ID    string
	Usage string // flag usage text
	// Apps lists the pipelines Run reads, started up front by RunSections.
	Apps []string
	// OptIn sections print only when asked for; a flagless run skips them.
	OptIn bool
	// NoBlank drops the blank separator line that follows the text.
	NoBlank bool
	// Run calls the section's driver once and renders its result twice:
	// as the text cmd/reproduce prints and as the snapshot section.
	Run func(*Suite) (string, fidelity.Section, error)
}

// Sections is the reproduction in print order: the paper's tables,
// figures and studies, the extensions, and the headline summary last.
var Sections = []Section{
	{ID: "table1", Usage: "Table 1: benchmarks and datasets",
		Run: render(func(*Suite) ([]Table1Row, error) { return Table1(), nil }, FormatTable1, table1Section)},
	{ID: "table2", Usage: "Table 2: V/F assignments", Apps: AppOrder,
		Run: render((*Suite).Table2, FormatTable2, table2Section)},
	{ID: "fig2", Usage: "Fig. 2: core utilization distributions", Apps: Fig2Apps,
		Run: render((*Suite).Fig2, FormatFig2, fig2Section)},
	{ID: "fig4", Usage: "Fig. 4: VFI 1 vs VFI 2", Apps: Fig4Apps,
		Run: render((*Suite).Fig4, FormatFig4, fig4Section)},
	{ID: "fig5", Usage: "Fig. 5: bottleneck utilization", Apps: Fig4Apps,
		Run: render((*Suite).Fig5, FormatFig5, fig5Section)},
	{ID: "fig6", Usage: "Fig. 6: placement strategies", Apps: AppOrder,
		Run: render((*Suite).Fig6, FormatFig6, fig6Section)},
	{ID: "fig7", Usage: "Fig. 7: execution-time breakdown", Apps: AppOrder,
		Run: render((*Suite).Fig7, FormatFig7, fig7Section)},
	{ID: "fig8", Usage: "Fig. 8: full-system EDP", Apps: AppOrder,
		Run: render((*Suite).Fig8, FormatFig8, fig8Section)},
	{ID: "kintra", Usage: "Section 7.2: (k_intra,k_inter) sweep", Apps: AppOrder,
		Run: render((*Suite).KIntraSweep, func(rows []KIntraRow) string {
			return MinKIntraNote() + FormatKIntra(rows)
		}, kintraSection)},
	{ID: "stealing", Usage: "Section 4.3: task-stealing case study",
		Run: render(func(*Suite) (StealingStudy, error) { return RunStealingStudy() }, FormatStealing, stealingSection)},
	{ID: "phased", Usage: "extension: phase-adaptive DVFS controllers", Apps: AppOrder,
		Run: render((*Suite).PhaseAdaptiveStudy, FormatPhased, phasedSection)},
	{ID: "wifail", Usage: "extension: wireless-interface failure robustness", Apps: []string{DefaultWIFailureApp},
		Run: render(func(s *Suite) ([]WIFailureRow, error) {
			return s.WIFailureStudy(DefaultWIFailureApp, DefaultWIFailures)
		}, FormatWIFailure, wifailSection)},
	{ID: "margins", Usage: "sensitivity: V/F-selection margin sweep", Apps: []string{DefaultMarginApp},
		Run: render(func(s *Suite) ([]MarginRow, error) {
			return s.MarginSweep(DefaultMarginApp, DefaultMargins)
		}, FormatMargin, marginsSection)},
	{ID: "summary", Usage: "headline numbers (abstract)", Apps: AppOrder, NoBlank: true,
		Run: render(func(s *Suite) (Summary, error) {
			rows, err := s.Fig8()
			if err != nil {
				return Summary{}, err
			}
			return Summarize(rows), nil
		}, FormatSummary, summarySection)},
}

// GovernorSection is the opt-in closed-loop DVFS governor study with its
// cap column at capW watts. It has no flag of its own: cmd/reproduce
// prints it under -policy. The snapshot always holds it at
// DefaultGovernorCapW.
func GovernorSection(capW float64) Section {
	return Section{ID: "governor", Apps: AppOrder, OptIn: true,
		Run: render(func(s *Suite) ([]GovernorRow, error) { return s.GovernorStudy(capW) },
			FormatGovernor, governorSection)}
}

// WithOptIn returns Sections with the opt-in sections placed where they
// print: after the studies, before the closing summary.
func WithOptIn(optIn ...Section) []Section {
	last := len(Sections) - 1
	return append(append(Sections[:last:last], optIn...), Sections[last])
}

// snapshotSections lists every section the snapshot holds, in order.
func snapshotSections() []Section {
	return WithOptIn(GovernorSection(DefaultGovernorCapW))
}

// render wires a driver to its two renderings: the text and the snapshot
// section built from the same rows.
func render[R any](drive func(*Suite) (R, error), text func(R) string,
	snap func(R) fidelity.Section) func(*Suite) (string, fidelity.Section, error) {
	return func(s *Suite) (string, fidelity.Section, error) {
		rows, err := drive(s)
		if err != nil {
			return "", fidelity.Section{}, err
		}
		return text(rows), snap(rows), nil
	}
}

// RunSections runs secs on s all at once and hands their results to emit
// in secs' order. Every pipeline the sections read and every section's
// driver start together, each driver on its own goroutine as a caller of
// the suite pool, never as a job, so no driver holds a slot while it waits
// for the jobs it submits. emit runs on the calling goroutine, for
// section i as soon as sections 0..i are done.
//
// The first section in secs' order that fails ends the emission: every
// section before it has been emitted and none after it is. Once every
// driver has returned, RunSections returns that section's error as is or,
// if its driver panicked, re-panics with a *sim.JobPanic: the one the
// pool raised in the driver, or one naming the section.
func (s *Suite) RunSections(secs []Section, emit func(sec Section, text string, fsec fidelity.Section)) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	started := map[string]bool{}
	for _, sec := range secs {
		for _, app := range sec.Apps {
			if started[app] {
				continue
			}
			started[app] = true
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The drivers that read the pipeline meet its error or
				// panic themselves, in section order.
				defer func() { _ = recover() }()
				_, _ = s.Pipeline(app)
			}()
		}
	}
	type outcome struct {
		text string
		fsec fidelity.Section
		err  error
		pn   *sim.JobPanic
		done chan struct{}
	}
	outs := make([]outcome, len(secs))
	for i, sec := range secs {
		o := &outs[i]
		o.done = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(o.done)
			defer func() {
				if r := recover(); r != nil {
					o.pn = asJobPanic("section:"+sec.ID, r)
				}
			}()
			track := int32(0)
			if obs.Enabled() {
				track = obs.TrackFor("section-" + sec.ID)
			}
			defer obs.StartSpanOn(track, "render", sec.ID).End()
			o.text, o.fsec, o.err = sec.Run(s)
		}()
	}
	for i, sec := range secs {
		o := &outs[i]
		<-o.done
		if o.pn != nil {
			panic(o.pn)
		}
		if o.err != nil {
			return o.err
		}
		emit(sec, o.text, o.fsec)
	}
	return nil
}

// asJobPanic returns r if it is a *sim.JobPanic already, else a JobPanic
// naming job, with the stack of the panicking goroutine (call it from that
// goroutine's deferred recover).
func asJobPanic(job string, r any) *sim.JobPanic {
	if pn, ok := r.(*sim.JobPanic); ok {
		return pn
	}
	return &sim.JobPanic{Job: job, Value: r, Stack: debug.Stack()}
}
