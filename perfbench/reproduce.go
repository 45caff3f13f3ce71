package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
)

// reproduce: one op is one warm flagless `reproduce` regeneration in a
// child process, against a design cache that set-up filled with one cold
// regeneration. Its stdout must equal the committed golden byte for byte.
// The paper's flow has no free input, so the seed changes nothing here.
type reproduceInst struct {
	e        *env
	cacheDir string
	cold     sample // the set-up's cold regeneration
}

func setupReproduce(e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.work, "reproduce-cache-")
	if err != nil {
		return nil, err
	}
	r := &reproduceInst{e: e, cacheDir: dir}
	r.cold = r.regenerate(0)
	r.cold.class = classCold
	return r, nil
}

// regenerate runs the reproduce binary once (jobs 0 = its default, every
// CPU) and checks its stdout against the golden.
func (r *reproduceInst) regenerate(jobs int) sample {
	s, err := r.run(jobs)
	switch {
	case err != nil:
		s.note = err.Error()
	case s.digest != r.e.gold.Reproduce:
		s.note = "reproduce stdout differs from the golden"
	default:
		s.ok = true
	}
	return s
}

// run executes the reproduce binary and returns its unchecked sample.
func (r *reproduceInst) run(jobs int) (sample, error) {
	args := []string{"-cache", r.cacheDir}
	if jobs > 0 {
		args = append(args, "-j", fmt.Sprint(jobs))
	}
	cmd := exec.Command(filepath.Join(r.e.bin, "reproduce"), args...)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	t0 := time.Now()
	err := cmd.Run()
	s := sample{class: classHot, ms: msSince(t0), digest: digest(out.Bytes())}
	if err != nil {
		return s, fmt.Errorf("reproduce: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssKB = ru.Maxrss
	}
	return s, nil
}

func (r *reproduceInst) callers() int           { return 1 }
func (r *reproduceInst) op(int) sample          { return r.regenerate(0) }
func (r *reproduceInst) serialOp(int) sample    { return r.regenerate(1) }
func (r *reproduceInst) setupSamples() []sample { return []sample{r.cold} }
func (r *reproduceInst) close()                 { os.RemoveAll(r.cacheDir) }

// layerScope labels the layer rows the side replay fills.
func (r *reproduceInst) layerScope() (label, note string) {
	return "pipelines", "layer rows labelled pipelines cover the six app pipelines only (side replay); " +
		"the figure drivers' own sim, placement and route calls run inside the expt.render sections " +
		"and are not in those rows, calls/op or sim.run_calls"
}

// replay regenerates in-process on one pool slot (the suite's warm
// pipelines, then every flagless section, each its own span), and, as side
// calls, replays each app's pipeline through the layer functions and
// checks it against the suite's. The figure drivers inside the sections
// build more systems and run more simulations (the k_intra sweep, the
// fault and margin studies); those calls happen inside the program and
// get no layer span, so the layer rows cover the pipelines only (see
// layerScope).
func (r *reproduceInst) replay(_ int, t *tracer) (string, error) {
	cfg := expt.DefaultConfig()
	suite := expt.NewSuite(cfg, expt.WithParallelism(1), expt.WithCacheDir(r.cacheDir))
	if err := t.call("expt.prewarm", func() error { return suite.Prewarm(expt.AppOrder...) }); err != nil {
		return "", err
	}
	var out string
	if err := t.call("expt.render", func() (err error) {
		out, err = renderAll(suite, t)
		return err
	}); err != nil {
		return "", err
	}
	err := t.side("expt.layers", func() error {
		for _, name := range expt.AppOrder {
			app, err := apps.ByName(name)
			if err != nil {
				return err
			}
			w, prof, plan, err := designHit(t, cfg, app, r.cacheDir)
			if err != nil {
				return err
			}
			runs, err := pipelineRuns(t, cfg.Build, w, prof, plan)
			if err != nil {
				return err
			}
			pl, err := suite.Pipeline(name)
			if err != nil {
				return err
			}
			if err := samePipeline(runs, pl); err != nil {
				return err
			}
		}
		return nil
	})
	return digest([]byte(out)), err
}

// renderAll renders every section of a flagless `reproduce` run, in its
// order and with its separators. With a tracer, each section's driver and
// formatter is one call of layer expt.render@<section>.
func renderAll(s *expt.Suite, t *tracer) (string, error) {
	var b strings.Builder
	sections := []struct {
		name   string
		render func() (string, error)
	}{
		{"table1", func() (string, error) { return expt.FormatTable1(expt.Table1()), nil }},
		{"table2", func() (string, error) { rows, err := s.Table2(); return expt.FormatTable2(rows), err }},
		{"fig2", func() (string, error) { rows, err := s.Fig2(); return expt.FormatFig2(rows), err }},
		{"fig4", func() (string, error) { rows, err := s.Fig4(); return expt.FormatFig4(rows), err }},
		{"fig5", func() (string, error) { rows, err := s.Fig5(); return expt.FormatFig5(rows), err }},
		{"fig6", func() (string, error) { rows, err := s.Fig6(); return expt.FormatFig6(rows), err }},
		{"fig7", func() (string, error) { rows, err := s.Fig7(); return expt.FormatFig7(rows), err }},
		{"fig8", func() (string, error) { rows, err := s.Fig8(); return expt.FormatFig8(rows), err }},
		{"kintra", func() (string, error) {
			rows, err := s.KIntraSweep()
			return expt.MinKIntraNote() + expt.FormatKIntra(rows), err
		}},
		{"stealing", func() (string, error) { st, err := expt.RunStealingStudy(); return expt.FormatStealing(st), err }},
		{"phased", func() (string, error) { rows, err := s.PhaseAdaptiveStudy(); return expt.FormatPhased(rows), err }},
		{"wi_failure", func() (string, error) {
			rows, err := s.WIFailureStudy(expt.DefaultWIFailureApp, expt.DefaultWIFailures)
			return expt.FormatWIFailure(rows), err
		}},
		{"margin", func() (string, error) {
			rows, err := s.MarginSweep(expt.DefaultMarginApp, expt.DefaultMargins)
			return expt.FormatMargin(rows), err
		}},
		{"summary", func() (string, error) {
			rows, err := s.Fig8()
			return expt.FormatSummary(expt.Summarize(rows)), err
		}},
	}
	for _, sec := range sections {
		var out string
		render := func() (err error) {
			out, err = sec.render()
			return err
		}
		var err error
		if t != nil {
			err = t.call("expt.render@"+sec.name, render)
		} else {
			err = render()
		}
		if err != nil {
			return "", err
		}
		b.WriteString(out)
		if sec.name != "summary" {
			b.WriteString("\n")
		}
	}
	return b.String(), nil
}
