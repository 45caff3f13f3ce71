package sweep

import (
	"reflect"
	"testing"
)

// maxFuzzGrid bounds the cross-product a fuzz input may expand, so one
// input with hundreds of axis points cannot stall the fuzzer on key
// hashing. Specs above it are still parsed; only Generate is skipped.
const maxFuzzGrid = 4096

// FuzzParseSpec feeds arbitrary documents to ParseSpec and expands every
// accepted spec. No input may panic; an accepted spec must generate the
// same scenarios on every call, and every scenario's island sizes must be
// nil (the equal split) or positive and sum to the core count. Seeds live
// in testdata/fuzz/FuzzParseSpec, including the two specs ParseSpec once
// accepted only to fail per scenario: a split whose weights overflow int
// and an unknown app.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := ParseSpec(raw)
		if err != nil {
			return
		}
		grid := 1
		for _, axis := range []int{len(spec.Meshes), len(spec.Islands), len(spec.Apps), len(spec.Margins), len(spec.Policies)} {
			grid *= axis
			if grid > maxFuzzGrid {
				return
			}
		}
		first, skipped, err := spec.Generate()
		if err != nil {
			t.Fatalf("accepted spec fails to generate: %v", err)
		}
		again, skippedAgain, err := spec.Generate()
		if err != nil || skipped != skippedAgain || !reflect.DeepEqual(first, again) {
			t.Fatalf("Generate not deterministic: %d/%d scenarios, %d/%d skipped, err %v",
				len(first), len(again), skipped, skippedAgain, err)
		}
		for _, sc := range first {
			if sc.Sizes == nil {
				continue
			}
			if len(sc.Sizes) != sc.Islands {
				t.Fatalf("%+v: %d sizes for %d islands", sc, len(sc.Sizes), sc.Islands)
			}
			sum := 0
			for _, sz := range sc.Sizes {
				if sz <= 0 {
					t.Fatalf("%+v: non-positive island size", sc)
				}
				sum += sz
			}
			if sum != sc.Cores() {
				t.Fatalf("%+v: sizes sum to %d, want %d cores", sc, sum, sc.Cores())
			}
		}
	})
}
