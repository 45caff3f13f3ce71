package noc_test

import (
	"testing"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
	"wivfi/internal/noc"
	"wivfi/internal/place"
	"wivfi/internal/sim"
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
