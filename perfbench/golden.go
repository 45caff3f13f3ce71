package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"wivfi/internal/sweep"
)

// goldens are the committed expected outputs. Each file records the
// workload and seeds it came from and the commit it was generated at.
type goldens struct {
	// Reproduce is the SHA-256 of flagless `reproduce` stdout.
	Reproduce string
	// Sweep maps a scenario key to the digest of its record's
	// deterministic fields.
	Sweep map[string]string
	// Serve maps an app (default paper config) to the digest of its
	// /v1/design response body.
	Serve map[string]string
}

// goldenFile is the on-disk shape shared by the golden files.
type goldenFile struct {
	Workload string            `json:"workload"`
	Seeds    string            `json:"seeds"`
	Commit   string            `json:"commit"`
	Note     string            `json:"note,omitempty"`
	SHA256   string            `json:"sha256,omitempty"`
	Digests  map[string]string `json:"digests,omitempty"`
}

func loadGoldens(dir string) (*goldens, error) {
	read := func(name string) (goldenFile, error) {
		var g goldenFile
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return g, fmt.Errorf("golden: %w", err)
		}
		if err := json.Unmarshal(raw, &g); err != nil {
			return g, fmt.Errorf("golden %s: %w", name, err)
		}
		return g, nil
	}
	rep, err := read("reproduce.json")
	if err != nil {
		return nil, err
	}
	sw, err := read("sweep.json")
	if err != nil {
		return nil, err
	}
	sv, err := read("serve.json")
	if err != nil {
		return nil, err
	}
	if rep.SHA256 == "" || len(sw.Digests) == 0 || len(sv.Digests) == 0 {
		return nil, fmt.Errorf("golden: empty golden file in %s", dir)
	}
	return &goldens{Reproduce: rep.SHA256, Sweep: sw.Digests, Serve: sv.Digests}, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// writeGoldens regenerates every golden file from the program as built:
// flagless reproduce stdout, every sweep grid point, and each warmed serve
// config. Run it only when the program's output is meant to change.
func writeGoldens(root, bin, commit string) error {
	work, err := os.MkdirTemp(bin, "goldens-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{bin: bin, work: work, seed: 1, procs: runtime.GOMAXPROCS(0), gold: &goldens{}}
	dir := filepath.Join(root, "perfbench", "golden")
	write := func(name string, g goldenFile) error {
		g.Commit = commit
		blob, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name), append(blob, '\n'), 0o644)
	}

	r := &reproduceInst{e: e, cacheDir: ""}
	smp, err := r.run(0)
	if err != nil {
		return err
	}
	if err := write("reproduce.json", goldenFile{Workload: "reproduce", Seeds: "every seed (the output does not depend on it)",
		Note: "SHA-256 of flagless reproduce stdout", SHA256: smp.digest}); err != nil {
		return err
	}

	grid, err := sweepGrid()
	if err != nil {
		return err
	}
	digests := map[string]string{}
	for _, op := range grid {
		res, err := sweep.Run(op.spec, sweep.Options{Parallelism: e.procs})
		if err != nil {
			return err
		}
		if len(res.Records) != 1 || res.Records[0].Error != "" {
			return fmt.Errorf("golden sweep %s: %+v", op.sc.Label(), res.Records)
		}
		digests[res.Records[0].Key] = recordDigest(res.Records[0])
	}
	if err := write("sweep.json", goldenFile{Workload: "sweep", Seeds: "every seed (covers the whole grid any seed draws from)",
		Note: "SHA-256, by scenario key, of the record's deterministic fields", Digests: digests}); err != nil {
		return err
	}

	sv, err := serveGoldens(e)
	if err != nil {
		return err
	}
	return write("serve.json", goldenFile{Workload: "serve", Seeds: "every seed (the warmed configs do not depend on it)",
		Note: "SHA-256, by app at the default paper config, of the /v1/design response body", Digests: sv})
}
