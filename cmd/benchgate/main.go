// Command benchgate turns `go test -bench -benchmem` text into JSON and
// enforces testdata/bench-gates.json on it, as CI's bench job does:
//
//	benchgate -in bench.txt -out BENCH_ci.json -gates testdata/bench-gates.json
//
// Each gate bounds one benchmark with exactly one kind: an alloc ceiling
// (max_allocs_per_op, max_bytes_per_op), a ratio floor (its ns/op over the
// ns/op of benchmark over is at least min_ratio) or a wall budget
// (max_ns_per_op). Raw ns/op varies across machines, so tight bounds go
// only on allocation counts and on ratios of two benchmarks run in the
// same process; a wall budget is a loose ceiling against order-of-magnitude
// blowups. Every benchmark a gate names must appear in the input exactly
// once. Each gate prints one line with its measured value and bound.
//
// Without -gates the command only parses, and writes the JSON with -out.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Bench is one parsed benchmark line.
type Bench struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Snapshot is the -out schema.
type Snapshot struct {
	Schema     int     `json:"schema"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Gate bounds one benchmark with exactly one kind: the alloc ceiling (both
// Max*PerOp counts), the ratio floor (Over, MinRatio) or the wall budget
// (MaxNsPerOp). Pointers tell a zero bound from an absent one.
type Gate struct {
	Name           string   `json:"name"`
	MaxAllocsPerOp *int64   `json:"max_allocs_per_op,omitempty"`
	MaxBytesPerOp  *int64   `json:"max_bytes_per_op,omitempty"`
	Over           string   `json:"over,omitempty"`
	MinRatio       *float64 `json:"min_ratio,omitempty"`
	MaxNsPerOp     *float64 `json:"max_ns_per_op,omitempty"`
	Why            string   `json:"why,omitempty"`
}

// gatesSchema versions the gates file, snapshotSchema the -out JSON.
const gatesSchema, snapshotSchema = 1, 2

func main() {
	var (
		in    = flag.String("in", "-", "benchmark text to parse (- for stdin)")
		out   = flag.String("out", "", "write the parsed benchmarks as JSON here")
		gates = flag.String("gates", "", "enforce the gates in `file`; without it, only parse")
	)
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	snap, err := parse(r)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("benchgate: parsed %d benchmarks\n", len(snap.Benchmarks))

	if *gates == "" {
		return
	}
	f, err := os.Open(*gates)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	gs, err := readGates(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *gates, err))
	}
	lines, failed := check(gs, snap.Benchmarks)
	for _, line := range lines {
		fmt.Println("benchgate:", line)
	}
	if failed > 0 {
		fatal(fmt.Errorf("FAIL: %d of %d gates", failed, len(gs)))
	}
	fmt.Println("benchgate: gates green")
}

// parse reads `go test -bench -benchmem` text. Lines that are not
// benchmark results (headers, PASS, ok) are skipped.
func parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Schema: snapshotSchema}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		b, ok := parseLine(sc.Text())
		if ok {
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	sort.SliceStable(snap.Benchmarks, func(i, j int) bool {
		return snap.Benchmarks[i].Name < snap.Benchmarks[j].Name
	})
	return snap, nil
}

// parseLine parses one result line, e.g.
//
//	BenchmarkKernel-8  200  5838468 ns/op  0 B/op  0 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped so results compare across hosts.
func parseLine(line string) (Bench, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Bench{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: name, Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Bench{}, false
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = v
			seenNs = true
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		}
	}
	return b, seenNs
}

// readGates decodes and validates a gates file.
func readGates(r io.Reader) ([]Gate, error) {
	var file struct {
		Schema int    `json:"schema"`
		Gates  []Gate `json:"gates"`
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return nil, err
	}
	if file.Schema != gatesSchema {
		return nil, fmt.Errorf("schema %d, want %d", file.Schema, gatesSchema)
	}
	if len(file.Gates) == 0 {
		return nil, errors.New("no gates")
	}
	seen := map[string]bool{}
	for _, g := range file.Gates {
		if err := g.validate(); err != nil {
			return nil, fmt.Errorf("gate %q: %w", g.Name, err)
		}
		if seen[g.Name] {
			return nil, fmt.Errorf("gate %q: second gate for one benchmark", g.Name)
		}
		seen[g.Name] = true
	}
	return file.Gates, nil
}

// validate rejects a gate without exactly one kind, a negative ceiling and
// a non-positive floor or budget.
func (g Gate) validate() error {
	kinds := 0
	if g.MaxAllocsPerOp != nil || g.MaxBytesPerOp != nil {
		kinds++
		if g.MaxAllocsPerOp == nil || g.MaxBytesPerOp == nil || *g.MaxAllocsPerOp < 0 || *g.MaxBytesPerOp < 0 {
			return errors.New("an alloc ceiling needs non-negative max_allocs_per_op and max_bytes_per_op")
		}
	}
	if g.Over != "" || g.MinRatio != nil {
		kinds++
		if g.Over == "" || g.MinRatio == nil || *g.MinRatio <= 0 {
			return errors.New("a ratio floor needs over and a positive min_ratio")
		}
	}
	if g.MaxNsPerOp != nil {
		kinds++
		if *g.MaxNsPerOp <= 0 {
			return errors.New("non-positive max_ns_per_op")
		}
	}
	if kinds != 1 {
		return fmt.Errorf("%d gate kinds, want exactly one", kinds)
	}
	return nil
}

// check evaluates every gate against the parsed results and returns one
// line per gate and the number that failed.
func check(gs []Gate, bs []Bench) (lines []string, failed int) {
	results := map[string][]Bench{}
	for _, b := range bs {
		results[b.Name] = append(results[b.Name], b)
	}
	// A repeated name is an error too, so a name clash across packages
	// cannot gate only one of them.
	one := func(name string) (Bench, error) {
		switch rs := results[name]; len(rs) {
		case 1:
			return rs[0], nil
		case 0:
			return Bench{}, fmt.Errorf("%s missing from input", name)
		default:
			return Bench{}, fmt.Errorf("%s has %d result lines in input", name, len(rs))
		}
	}
	for _, g := range gs {
		ok, line := judge(g, one)
		prefix := "ok   "
		if !ok {
			failed++
			prefix = "FAIL "
		}
		lines = append(lines, prefix+line)
	}
	return lines, failed
}

// judge applies one gate.
func judge(g Gate, one func(string) (Bench, error)) (bool, string) {
	b, err := one(g.Name)
	if err != nil {
		return false, err.Error()
	}
	switch {
	case g.MaxNsPerOp != nil:
		return b.NsPerOp <= *g.MaxNsPerOp, fmt.Sprintf("%s %v/op, budget %v",
			g.Name, time.Duration(b.NsPerOp), time.Duration(*g.MaxNsPerOp))
	case g.MinRatio != nil:
		over, err := one(g.Over)
		if err != nil {
			return false, fmt.Sprintf("%s: ratio over %v", g.Name, err)
		}
		ratio := b.NsPerOp / over.NsPerOp
		return ratio >= *g.MinRatio, fmt.Sprintf("%s/%s %.2fx, floor %.2fx", g.Name, g.Over, ratio, *g.MinRatio)
	}
	return b.AllocsPerOp <= *g.MaxAllocsPerOp && b.BytesPerOp <= *g.MaxBytesPerOp,
		fmt.Sprintf("%s %d allocs/op %d B/op, ceiling %d allocs/op %d B/op",
			g.Name, b.AllocsPerOp, b.BytesPerOp, *g.MaxAllocsPerOp, *g.MaxBytesPerOp)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(1)
}
