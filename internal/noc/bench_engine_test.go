package noc

import "testing"

// Benchmarks for the DES engines on the paper's 64-core WiNoC point (the
// configuration cmd/nocsim -des runs). BenchmarkDESEventEngine and
// BenchmarkDESReferenceEngine measure the same workload on the event
// engine and the cycle-driven reference, so their ratio is a
// machine-independent speedup that cmd/benchgate checks against the
// ratio floor in testdata/bench-gates.json.

func benchDES(b *testing.B, rt *RouteTable, reference bool) {
	b.Helper()
	nm := defaultNM()
	cfg := DefaultDESConfig()
	pkts := benchPackets(rt.topo.NumSwitches())
	if reference {
		if _, err := runDESReference(rt, pkts, nm, cfg, desHooks{}); err != nil {
			b.Fatal(err)
		}
	} else if _, err := RunDES(rt, pkts, nm, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if reference {
			_, err = runDESReference(rt, pkts, nm, cfg, desHooks{})
		} else {
			_, err = RunDES(rt, pkts, nm, cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDESEventEngine(b *testing.B) {
	benchDES(b, winocRT(b, UpDown), false)
}

func BenchmarkDESReferenceEngine(b *testing.B) {
	benchDES(b, winocRT(b, UpDown), true)
}

func BenchmarkDESEventEngineMesh(b *testing.B) {
	benchDES(b, meshRT(b, XY), false)
}
