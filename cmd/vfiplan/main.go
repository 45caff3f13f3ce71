// Command vfiplan runs the paper's VFI design flow (Fig. 3) for one
// benchmark and prints the clustering, V/F assignment and bottleneck
// re-assignment.
//
// Usage:
//
//	vfiplan -app pca [-islands 4] [-margin 0.35] [-timeline dir]
//	        [-trace file.json] [-manifest file.json] [-v] [-debug-addr addr]
//
// -timeline writes the plan's V/F design-step tracks (VFI 1 -> VFI 2 per
// island) and the profiled per-core utilization series to the given
// directory. The telemetry flags behave exactly as in cmd/reproduce: they
// never touch stdout.
package main

import (
	"flag"
	"fmt"
	"os"

	"wivfi/internal/apps"
	"wivfi/internal/obs"
	"wivfi/internal/platform"
	"wivfi/internal/sim"
	"wivfi/internal/stats"
	"wivfi/internal/timeline"
	"wivfi/internal/vfi"
)

func main() {
	var (
		appName     = flag.String("app", "pca", "benchmark: "+fmt.Sprint(apps.Names()))
		islands     = flag.Int("islands", 4, "number of VFI islands")
		margin      = flag.Float64("margin", 0.35, "frequency headroom margin for V/F selection")
		saveProfile = flag.String("save-profile", "", "write the measured profile to this JSON file")
		loadProfile = flag.String("load-profile", "", "plan from a previously saved profile instead of re-profiling")
		saveVFI     = flag.String("save-vfi", "", "write the final VFI 2 configuration to this JSON file")
	)
	cli := obs.NewCLI(flag.CommandLine, true)
	flag.Parse()
	if err := cli.Start("vfiplan"); err != nil {
		fatal(err)
	}

	app, err := apps.ByName(*appName)
	if err != nil {
		fatal(err)
	}
	var prof platform.Profile
	if *loadProfile != "" {
		f, err := os.Open(*loadProfile)
		if err != nil {
			fatal(err)
		}
		prof, err = platform.ReadProfile(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		cfg := sim.DefaultBuildConfig()
		w, err := app.Workload(cfg.Chip.NumCores())
		if err != nil {
			fatal(err)
		}
		probe, err := sim.NVFIMesh(cfg)
		if err != nil {
			fatal(err)
		}
		sp := obs.StartSpan("probe-sim", app.Name)
		res, err := sim.Run(w, probe)
		sp.End()
		if err != nil {
			fatal(err)
		}
		prof = res.Profile()
	}
	if *saveProfile != "" {
		f, err := os.Create(*saveProfile)
		if err != nil {
			fatal(err)
		}
		if err := platform.WriteProfile(f, prof); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("profile written to %s\n", *saveProfile)
	}

	opts := vfi.DefaultOptions()
	opts.NumIslands = *islands
	opts.FreqMargin = *margin
	sp := obs.StartSpan("vfi-design", app.Name)
	plan, err := vfi.Design(prof, opts)
	sp.End()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("VFI plan for %s (%d cores, %d islands, margin %.2f)\n",
		app.Name, len(prof.Util), *islands, *margin)
	fmt.Printf("clustering objective (Eq. 1) = %.4f\n", plan.ClusterCost)
	islandsOf := plan.VFI1.Islands()
	for j, cores := range islandsOf {
		var us []float64
		for _, c := range cores {
			us = append(us, prof.Util[c])
		}
		marker := ""
		for _, r := range plan.RaisedIslands {
			if r == j {
				marker = "  <- raised in VFI 2"
			}
		}
		fmt.Printf("  island %d: VFI1 %-9v VFI2 %-9v mean-util %.3f cores %v%s\n",
			j, plan.VFI1.Points[j], plan.VFI2.Points[j], stats.Mean(us), cores, marker)
	}
	fmt.Printf("bottleneck cores: %v (pattern homogeneous: %v)\n",
		plan.Bottlenecks, plan.HomogeneousPattern)
	if col := timeline.Active(); col != nil {
		for j := range plan.VFI1.Points {
			tr := col.Track(timeline.Meta{
				Name:      fmt.Sprintf("vfi/%s/island/%d/vf", app.Name, j),
				IndexUnit: "design-step",
				Unit:      "V/GHz",
			})
			tr.Set(0, plan.VFI1.Points[j].String())
			tr.Set(1, plan.VFI2.Points[j].String())
		}
		util := col.Sampler(timeline.Meta{
			Name:      fmt.Sprintf("vfi/%s/core-util", app.Name),
			IndexUnit: "core",
			Unit:      "util",
		}, 1, timeline.Mean)
		for c, u := range prof.Util {
			util.Add(int64(c), u)
		}
	}
	if *saveVFI != "" {
		f, err := os.Create(*saveVFI)
		if err != nil {
			fatal(err)
		}
		if err := platform.WriteVFIConfig(f, plan.VFI2); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("VFI 2 configuration written to %s\n", *saveVFI)
	}
	if err := cli.Finish(nil); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "vfiplan: %v\n", err)
	os.Exit(1)
}
