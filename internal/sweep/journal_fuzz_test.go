package sweep

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"
)

// fuzzJournalPrefix returns a journal of completed records, encoded as
// Journal.Append encodes them: a success record with unequal island
// sizes, a governed WiNoC one and a failed scenario.
func fuzzJournalPrefix(t testing.TB) []byte {
	var buf bytes.Buffer
	for _, rec := range []Record{
		{Key: "aaa", App: "wc", Rows: 8, Cols: 8, Islands: 2, Sizes: []int{16, 48}, Margin: 0.35, Policy: "none", Tier: TierMesh,
			ExecSeconds: 1.5, TotalJ: 2.25, EDP: 3.375, ExecRatio: 1.01, EnergyRatio: 0.8, EDPRatio: 0.81, CacheHit: true, WallMS: 12},
		{Key: "bbb", App: "mm", Rows: 4, Cols: 4, Islands: 4, Margin: 0.25, Policy: "cap", CapW: 120, Tier: TierWiNoC,
			ExecSeconds: 0.25, TotalJ: 1, EDP: 0.25, WiNoCEDPRatio: 0.7, Transitions: 3, DESDeviation: 0.1},
		{Key: "ccc", App: "pca", Rows: 12, Cols: 12, Islands: 4, Policy: "none", Tier: TierMesh, Error: "sweep: infeasible scenario: x"},
	} {
		rec.Schema = JournalSchemaVersion
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(blob, '\n'))
	}
	return buf.Bytes()
}

// FuzzLoadJournal appends arbitrary bytes to a journal of completed
// records and loads it. No input may panic, and unless the load errors
// every key of the valid prefix keeps exactly its record: a torn line,
// foreign JSON, a duplicate key or a record with no outcome after them
// can neither drop nor replace one. overlong puts a line past the 4 MiB
// scanner limit between prefix and tail, which must be an error. Seeds
// in testdata/fuzz/FuzzLoadJournal cover each of those tails.
func FuzzLoadJournal(f *testing.F) {
	prefix := fuzzJournalPrefix(f)
	want, err := readJournal(bytes.NewReader(prefix))
	if err != nil || len(want) != 3 {
		f.Fatalf("valid prefix loads %d records, err %v; want 3", len(want), err)
	}
	long := append(bytes.Repeat([]byte("x"), 4<<20+1), '\n')
	f.Fuzz(func(t *testing.T, tail []byte, overlong bool) {
		parts := []io.Reader{bytes.NewReader(prefix)}
		if overlong {
			parts = append(parts, bytes.NewReader(long))
		}
		got, err := readJournal(io.MultiReader(append(parts, bytes.NewReader(tail))...))
		if overlong && err == nil {
			t.Fatal("a line over the scanner limit loaded without error")
		}
		if err != nil {
			return
		}
		for key, rec := range want {
			if !reflect.DeepEqual(got[key], rec) {
				t.Fatalf("key %q loads as %+v, want %+v", key, got[key], rec)
			}
		}
		for key, rec := range got {
			if key == "" || rec.Key != key || rec.Schema != JournalSchemaVersion || !rec.completed() {
				t.Fatalf("loaded %q as %+v: not a completed record of that key", key, rec)
			}
		}
	})
}
