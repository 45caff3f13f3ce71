package noc_test

import (
	"math/rand"
	"testing"

	"wivfi/internal/apps"
	"wivfi/internal/energy"
	"wivfi/internal/expt"
	"wivfi/internal/noc"
	"wivfi/internal/place"
	"wivfi/internal/platform"
	"wivfi/internal/sim"
	"wivfi/internal/topo"
)

// BenchmarkAnalyticWiNoC is one analytic network evaluation on the
// paper's 8x8 VFI WiNoC (max-wireless placement) under the word-count
// benchmark's profiled traffic, mapped to switches and scaled to one flit
// per cycle of total injection.
func BenchmarkAnalyticWiNoC(b *testing.B) {
	a, err := apps.ByName("wc")
	if err != nil {
		b.Fatal(err)
	}
	cfg := expt.DefaultConfig()
	_, prof, plan, _, err := expt.BuildDesign(cfg, a, nil, "")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := sim.VFIWiNoC(cfg.Build, plan.VFI2, prof.Traffic, sim.MaxWireless)
	if err != nil {
		b.Fatal(err)
	}
	traffic := place.MapTraffic(prof.Traffic, sys.Mapping)
	var total float64
	for _, row := range traffic {
		for _, f := range row {
			total += f
		}
	}
	for _, row := range traffic {
		for j := range row {
			row[j] /= total
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := noc.Analytic(sys.Routes, traffic, cfg.Build.NetModel, cfg.Build.Analytic); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticMesh16 is one analytic evaluation of a 16x16 XY mesh
// under seeded dense traffic scaled to one flit per cycle of total
// injection.
func BenchmarkAnalyticMesh16(b *testing.B) {
	tp := topo.Mesh(platform.Chip{Rows: 16, Cols: 16, TileMM: 2.5})
	rt, err := noc.BuildRoutes(tp, noc.DefaultLinkCosts(), noc.XY)
	if err != nil {
		b.Fatal(err)
	}
	n := tp.NumSwitches()
	rng := rand.New(rand.NewSource(1))
	traffic := make([][]float64, n)
	var total float64
	for s := range traffic {
		traffic[s] = make([]float64, n)
		for d := range traffic[s] {
			if s != d {
				traffic[s][d] = rng.Float64()
				total += traffic[s][d]
			}
		}
	}
	for _, row := range traffic {
		for d := range row {
			row[d] /= total
		}
	}
	nm := energy.DefaultNetworkModel()
	cfg := noc.DefaultAnalyticConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := noc.Analytic(rt, traffic, nm, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
