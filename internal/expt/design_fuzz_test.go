package expt

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wivfi/internal/apps"
)

// designFiles are the four files of a design-cache entry that loadDesign
// reads, in FuzzDesignEntry's argument order.
var designFiles = [4]string{"profile.json", "vfi1.json", "vfi2.json", "plan.json"}

// FuzzDesignEntry writes arbitrary bytes as one entry's profile.json,
// vfi1.json, vfi2.json and plan.json. Nothing may panic. An entry that
// loadDesign rejects must be evicted from disk; one it accepts as a hit
// must build and render, since a hit whose build fails is never evicted
// and wedges its key. The seeds are the real mm entry, a truncated file,
// a wrong schema version, a valid profile sized for a 2-core chip and a
// valid 64-core vfi2.json with two islands instead of four.
func FuzzDesignEntry(f *testing.F) {
	cfg := DefaultConfig()
	app, err := apps.ByName("mm")
	if err != nil {
		f.Fatal(err)
	}
	_, prof, plan, _, err := BuildDesign(cfg, app, nil, "")
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if err := saveDesign(dir, cfg, app.Name, prof, plan); err != nil {
		f.Fatal(err)
	}
	ed, err := entryDir(dir, cfg, app.Name)
	if err != nil {
		f.Fatal(err)
	}
	var valid [4][]byte
	for i, name := range designFiles {
		if valid[i], err = os.ReadFile(filepath.Join(ed, name)); err != nil {
			f.Fatal(err)
		}
	}
	seed := func(i int, raw []byte) {
		files := valid
		files[i] = raw
		f.Add(files[0], files[1], files[2], files[3])
	}
	seed(0, valid[0])
	seed(3, valid[3][:len(valid[3])/2])
	wrongVersion := bytes.Replace(valid[1], []byte(`"version": 1`), []byte(`"version": 2`), 1)
	if bytes.Equal(wrongVersion, valid[1]) {
		f.Fatal("vfi1.json has no version 1 field to damage")
	}
	seed(1, wrongVersion)
	seed(0, []byte(`{"version":1,"util":[0.5,0.5],"traffic":[[0,1],[1,0]]}`))
	seed(2, []byte(`{"version":1,"assign":[`+strings.Repeat("0,1,", 31)+`0,1],"points":[{"VoltageV":0.8,"FreqGHz":1},{"VoltageV":1,"FreqGHz":2}]}`))

	f.Fuzz(func(t *testing.T, profile, vfi1, vfi2, planJSON []byte) {
		if err := os.RemoveAll(ed); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(ed, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, raw := range [4][]byte{profile, vfi1, vfi2, planJSON} {
			if err := os.WriteFile(filepath.Join(ed, designFiles[i]), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		switch _, _, outcome := loadDesign(dir, cfg, app.Name); outcome {
		case cacheCorrupt:
			if _, err := os.Stat(ed); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("rejected entry not evicted (stat: %v)", err)
			}
		case cacheHit:
			pl, err := buildPipeline(cfg, app, nil, dir, nil, meshRoutes(cfg), nil)
			if err != nil {
				t.Fatalf("entry loads as a hit but does not build: %v", err)
			}
			FormatTable2([]Table2Row{{App: pl.App.Name, VFI1: pl.Plan.VFI1.Points, VFI2: pl.Plan.VFI2.Points, Raised: pl.Plan.RaisedIslands}})
		}
	})
}
