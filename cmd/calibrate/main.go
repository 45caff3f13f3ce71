// Command calibrate is the closed-loop tool that produced the calibrated
// Reduce-phase work levels in internal/apps/model.go: it measures each
// benchmark's utilization group means on the non-VFI baseline and adjusts
// the levels until they hit the Table 2 band targets, then prints the
// converged constants. Run it after changing platform or network models to
// re-derive the application calibration.
//
// The telemetry flags (-trace, -manifest, -v, -debug-addr) behave exactly
// as in cmd/reproduce: they never touch stdout. -timeline writes each
// benchmark's per-iteration convergence series (measured group means and
// the residual band error) to the given directory.
package main

import (
	"flag"
	"fmt"
	"os"

	"wivfi/internal/obs"
)

func main() {
	cli := obs.NewCLI(flag.CommandLine, true)
	flag.Parse()
	if err := cli.Start("calibrate"); err != nil {
		fatal(err)
	}
	tune()
	if err := cli.Finish(nil); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
	os.Exit(1)
}
