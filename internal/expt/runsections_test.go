package expt

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"wivfi/internal/fidelity"
	"wivfi/internal/sim"
)

// textSections returns n sections that need no pipeline; section i renders
// "s<i>" unless run overrides it.
func textSections(n int, run map[int]func(*Suite) (string, fidelity.Section, error)) []Section {
	secs := make([]Section, n)
	for i := range secs {
		id := fmt.Sprintf("s%d", i)
		secs[i] = Section{ID: id, Run: func(*Suite) (string, fidelity.Section, error) {
			return id, fidelity.Section{ID: id}, nil
		}}
		if r := run[i]; r != nil {
			secs[i].Run = r
		}
	}
	return secs
}

// emitted collects what RunSections emits, as "id:text:snapshot id" in
// emission order.
func emitted(got *[]string) func(Section, string, fidelity.Section) {
	return func(sec Section, text string, fsec fidelity.Section) {
		*got = append(*got, sec.ID+":"+text+":"+fsec.ID)
	}
}

// TestRunSectionsRunsAtOnceEmitsInOrder: section 0 cannot finish before
// section 2 has started, so the sections run at once; they are still
// emitted in declared order.
func TestRunSectionsRunsAtOnceEmitsInOrder(t *testing.T) {
	started2 := make(chan struct{})
	secs := textSections(4, map[int]func(*Suite) (string, fidelity.Section, error){
		0: func(*Suite) (string, fidelity.Section, error) {
			select {
			case <-started2:
				return "s0", fidelity.Section{ID: "s0"}, nil
			case <-time.After(time.Minute):
				return "", fidelity.Section{}, errors.New("section 2 never started while section 0 ran")
			}
		},
		2: func(*Suite) (string, fidelity.Section, error) {
			close(started2)
			return "s2", fidelity.Section{ID: "s2"}, nil
		},
	})
	var got []string
	if err := NewSuite(DefaultConfig(), WithParallelism(1)).RunSections(secs, emitted(&got)); err != nil {
		t.Fatal(err)
	}
	if want := "s0:s0:s0 s1:s1:s1 s2:s2:s2 s3:s3:s3"; strings.Join(got, " ") != want {
		t.Errorf("emitted %q, want %q", got, want)
	}
}

// TestRunSectionsStopsAtFailingSection: the sections before a failing one
// are emitted, none after it, and its error comes back as is.
func TestRunSectionsStopsAtFailingSection(t *testing.T) {
	boom := errors.New("section 2 failed")
	secs := textSections(5, map[int]func(*Suite) (string, fidelity.Section, error){
		2: func(*Suite) (string, fidelity.Section, error) { return "", fidelity.Section{}, boom },
		3: func(*Suite) (string, fidelity.Section, error) {
			return "", fidelity.Section{}, errors.New("a later failure")
		},
	})
	var got []string
	err := NewSuite(DefaultConfig(), WithParallelism(2)).RunSections(secs, emitted(&got))
	if err != boom {
		t.Errorf("error %v, want %v", err, boom)
	}
	if want := "s0:s0:s0 s1:s1:s1"; strings.Join(got, " ") != want {
		t.Errorf("emitted %q, want %q", got, want)
	}
}

// TestRunSectionsReraisesPanics: a job panicking on the pool inside a
// section's driver re-raises its *sim.JobPanic on the caller after the
// sections before it are emitted; a driver panicking by itself re-raises
// as a JobPanic naming the section, and a panicking pipeline build as one
// naming the pipeline, whichever goroutine started the build.
func TestRunSectionsReraisesPanics(t *testing.T) {
	buildHook = func(name string) { panic("boom") }
	defer func() { buildHook = nil }()
	for _, c := range []struct {
		name, job string
		run       func(*Suite) (string, fidelity.Section, error)
	}{
		{"pipeline build", "pipeline:mm", func(s *Suite) (string, fidelity.Section, error) {
			_, err := s.Pipeline("mm")
			return "", fidelity.Section{}, err
		}},
		{"pool job", "test:boom", func(s *Suite) (string, fidelity.Section, error) {
			err := s.pool.Run(sim.Job{Name: "test:boom", Run: func() error { panic("boom") }})
			return "", fidelity.Section{}, err
		}},
		{"driver", "section:s1", func(*Suite) (string, fidelity.Section, error) { panic("boom") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			secs := textSections(3, map[int]func(*Suite) (string, fidelity.Section, error){1: c.run})
			secs[1].Apps = []string{"mm"}
			var got []string
			func() {
				defer func() {
					pn, ok := recover().(*sim.JobPanic)
					if !ok || pn.Job != c.job || pn.Value != "boom" {
						t.Errorf("recovered %#v, want a *sim.JobPanic of %s with value boom", pn, c.job)
					}
				}()
				_ = NewSuite(DefaultConfig(), WithParallelism(1)).RunSections(secs, emitted(&got))
				t.Error("RunSections returned instead of panicking")
			}()
			if want := "s0:s0:s0"; strings.Join(got, " ") != want {
				t.Errorf("emitted %q, want %q", got, want)
			}
		})
	}
}
