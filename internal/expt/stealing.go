package expt

import (
	"fmt"
	"strings"

	"wivfi/internal/sched"
)

// StealingStudy reproduces the Word Count case study of Section 4.3: 100
// map tasks on 64 cores, half at f1 = 2.5 GHz and half at f2 = 2.0 GHz,
// with per-task durations matching the paper's measured ranges
// (0.268-0.284 s at f1, 0.280-0.342 s at f2).
type StealingStudy struct {
	// Duration ranges per frequency class (seconds).
	F1Min, F1Max, F1Avg float64
	F2Min, F2Max, F2Avg float64
	// Makespans under the three policies.
	MakespanNoSteal float64
	MakespanDefault float64
	MakespanCapped  float64
	// Nf is the Eq. 3 cap for the slow cores.
	Nf int
	// SlowSteals counts tasks stolen by slow cores under the default
	// policy (the behaviour the cap eliminates).
	DefaultSteals int
	CappedSteals  int
}

// RunStealingStudy executes the case study.
func RunStealingStudy() (StealingStudy, error) {
	const (
		numTasks = 100
		numCores = 64
		f1, f2   = 2.5, 2.0
	)
	// 0.5 Gcycles +-7.5% plus a 72 ms frequency-independent stall
	// reproduces the paper's measured duration ranges (see sched docs).
	tasks := sched.UniformTasks(numTasks, 0.495e9, 0.075, 0.072)
	freqs := make([]float64, numCores)
	for c := range freqs {
		if c < numCores/2 {
			freqs[c] = f1
		} else {
			freqs[c] = f2
		}
	}
	var st StealingStudy
	st.F1Min, st.F2Min = 1e9, 1e9
	var sum1, sum2 float64
	for _, t := range tasks {
		d1 := t.Cycles/(f1*1e9) + t.FixedSec
		d2 := t.Cycles/(f2*1e9) + t.FixedSec
		st.F1Min = min(st.F1Min, d1)
		st.F1Max = max(st.F1Max, d1)
		st.F2Min = min(st.F2Min, d2)
		st.F2Max = max(st.F2Max, d2)
		sum1 += d1
		sum2 += d2
	}
	st.F1Avg = sum1 / numTasks
	st.F2Avg = sum2 / numTasks
	st.Nf = sched.Caps(numTasks, freqs)[numCores-1]

	assign := sched.DealRoundRobin(numTasks, numCores)
	for _, run := range []struct {
		policy sched.Policy
		span   *float64
		steals *int
	}{
		{sched.NoStealing, &st.MakespanNoSteal, nil},
		{sched.DefaultStealing, &st.MakespanDefault, &st.DefaultSteals},
		{sched.CapVFI, &st.MakespanCapped, &st.CappedSteals},
	} {
		res, err := sched.RunPhase(tasks, assign, freqs, run.policy, 0)
		if err != nil {
			return StealingStudy{}, err
		}
		*run.span = res.MakespanSec
		if run.steals != nil {
			*run.steals = res.Steals
		}
	}
	return st, nil
}

// FormatStealing renders the case study next to the paper's numbers.
func FormatStealing(st StealingStudy) string {
	var b strings.Builder
	b.WriteString("Section 4.3: Word Count task-stealing case study (100 tasks, 64 cores, f1=2.5 f2=2.0)\n")
	fmt.Fprintf(&b, "  f1 task duration: %.3f-%.3f s avg %.3f (paper: 0.268-0.284, avg 0.270)\n",
		st.F1Min, st.F1Max, st.F1Avg)
	fmt.Fprintf(&b, "  f2 task duration: %.3f-%.3f s avg %.3f (paper: 0.280-0.342, avg 0.320)\n",
		st.F2Min, st.F2Max, st.F2Avg)
	fmt.Fprintf(&b, "  Eq. 3 cap for f2 cores: Nf = %d\n", st.Nf)
	fmt.Fprintf(&b, "  makespan: no-steal %.3f s, default %.3f s (%d steals), capped %.3f s (%d steals)\n",
		st.MakespanNoSteal, st.MakespanDefault, st.DefaultSteals, st.MakespanCapped, st.CappedSteals)
	return b.String()
}
