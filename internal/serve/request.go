package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"strconv"

	"wivfi/internal/apps"
	"wivfi/internal/expt"
	"wivfi/internal/governor"
	"wivfi/internal/sim"
)

// Streaming modes of a design request.
const (
	// StreamNone: one JSON result document when the design completes.
	StreamNone = ""
	// StreamNDJSON: newline-delimited JSON progress events, result last.
	StreamNDJSON = "ndjson"
	// StreamSSE: the same events as Server-Sent Events data frames.
	StreamSSE = "sse"
)

// Request is one "design-my-chip" submission: which benchmark to design
// for, plus optional design-flow knobs (nil means the paper's default).
// Requests with equal knobs share one cache key, so they deduplicate onto
// one execution and one stored result.
type Request struct {
	// App is the benchmark name (required; see /v1/apps).
	App string `json:"app"`
	// NumIslands overrides the VFI count m (paper: 4). Must divide the
	// core count evenly.
	NumIslands *int `json:"num_islands,omitempty"`
	// FreqMargin overrides the utilization headroom added before
	// quantizing island frequencies (paper: 0.35), in [0, 0.9].
	FreqMargin *float64 `json:"freq_margin,omitempty"`
	// BottleneckRatio overrides the bottleneck-detection threshold
	// (paper: 1.25), in [1, 4].
	BottleneckRatio *float64 `json:"bottleneck_ratio,omitempty"`
	// Stream selects the response shape: "" (single JSON document),
	// "ndjson" or "sse" (live progress events).
	Stream string `json:"stream,omitempty"`
	// Policy additionally runs the designed VFI 2 mesh under a closed-loop
	// DVFS governor ("static", "util" or "cap"; "" disables). Governed
	// requests carry the policy in their dedup/memo key, so a governed and
	// an ungoverned run of the same design never collide.
	Policy string `json:"policy,omitempty"`
	// CapWatts overrides the chip-level core-power cap of policy "cap"
	// (default expt.DefaultGovernorCapW), in [20, 500].
	CapWatts *float64 `json:"cap_watts,omitempty"`
}

// decodeRequest reads a Request from a POST body: one JSON object whose
// fields must all be Request fields.
func decodeRequest(body io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("request body: %w", err)
	}
	return req, nil
}

// parseQuery builds a Request from URL query parameters (the curl-friendly
// GET form of /v1/design).
func parseQuery(q url.Values) (Request, error) {
	r := Request{App: q.Get("app"), Stream: q.Get("stream"), Policy: q.Get("policy")}
	if v := q.Get("num_islands"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return r, fmt.Errorf("num_islands: %w", err)
		}
		r.NumIslands = &n
	}
	for _, f := range []struct {
		name string
		dst  **float64
	}{{"freq_margin", &r.FreqMargin}, {"bottleneck_ratio", &r.BottleneckRatio}, {"cap_watts", &r.CapWatts}} {
		if v := q.Get(f.name); v != "" {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return r, fmt.Errorf("%s: %w", f.name, err)
			}
			*f.dst = &x
		}
	}
	return r, nil
}

// Config validates the request against base (the server's platform
// configuration) and returns the experiment Config it denotes. The
// returned config — not the request struct — is what gets hashed into the
// dedup/cache key, so two spellings of the same design are one key.
func (r Request) Config(base expt.Config) (expt.Config, error) {
	if r.App == "" {
		return expt.Config{}, fmt.Errorf("app is required (one of %v)", apps.Names())
	}
	if _, err := apps.ByName(r.App); err != nil {
		return expt.Config{}, fmt.Errorf("unknown app %q (one of %v)", r.App, apps.Names())
	}
	switch r.Stream {
	case StreamNone, StreamNDJSON, StreamSSE:
	default:
		return expt.Config{}, fmt.Errorf("stream must be %q, %q or %q", StreamNone, StreamNDJSON, StreamSSE)
	}
	cfg := base
	cores := cfg.Build.Chip.NumCores()
	if r.NumIslands != nil {
		m := *r.NumIslands
		if m < 1 || m > cores || cores%m != 0 {
			return expt.Config{}, fmt.Errorf("num_islands %d must divide the %d-core platform", m, cores)
		}
		cfg.VFI.NumIslands = m
	}
	if r.FreqMargin != nil {
		fm := *r.FreqMargin
		if !inRange(fm, 0, 0.9) {
			return expt.Config{}, fmt.Errorf("freq_margin %v out of range [0, 0.9]", fm)
		}
		cfg.VFI.FreqMargin = fm
	}
	if r.BottleneckRatio != nil {
		br := *r.BottleneckRatio
		if !inRange(br, 1, 4) {
			return expt.Config{}, fmt.Errorf("bottleneck_ratio %v out of range [1, 4]", br)
		}
		cfg.VFI.BottleneckRatio = br
	}
	if r.Policy != "" {
		pol, err := governor.ParsePolicy(r.Policy)
		if err != nil {
			return expt.Config{}, err
		}
		if r.CapWatts != nil {
			if pol != governor.Cap {
				return expt.Config{}, fmt.Errorf("cap_watts requires policy %q, got %q", governor.Cap, pol)
			}
			if err := expt.CheckGovernorCap(*r.CapWatts); err != nil {
				return expt.Config{}, fmt.Errorf("cap_watts: %w", err)
			}
		}
	} else if r.CapWatts != nil {
		return expt.Config{}, fmt.Errorf("cap_watts requires policy %q", governor.Cap)
	}
	return cfg, nil
}

// inRange reports lo <= v <= hi. It is false for NaN, which every
// negated bound comparison (v < lo || v > hi) would let through.
func inRange(v, lo, hi float64) bool { return v >= lo && v <= hi }

// governorSpec resolves the request's governor dimension after Config has
// validated it: the parsed policy, the effective cap and whether a
// governed run was requested at all.
func (r Request) governorSpec() (pol governor.Policy, capW float64, governed bool) {
	if r.Policy == "" {
		return governor.Static, 0, false
	}
	pol, _ = governor.ParsePolicy(r.Policy)
	if pol == governor.Cap {
		capW = expt.DefaultGovernorCapW
		if r.CapWatts != nil {
			capW = *r.CapWatts
		}
	}
	return pol, capW, true
}

// keyExtras spells the governor dimension into the dedup/memo key salt;
// empty for ungoverned requests, which therefore keep their historical
// keys.
func (r Request) keyExtras() []string {
	pol, capW, governed := r.governorSpec()
	if !governed {
		return nil
	}
	extras := []string{"policy=" + pol.String()}
	if pol == governor.Cap {
		extras = append(extras, fmt.Sprintf("cap=%g", capW))
	}
	return extras
}

// SystemResult is one simulated system's share of a design result:
// absolute energy/delay plus the paper's normalized ratios against the
// NVFI mesh baseline.
type SystemResult struct {
	ExecSeconds float64 `json:"exec_seconds"`
	TotalJ      float64 `json:"total_j"`
	EDP         float64 `json:"edp"`
	ExecRatio   float64 `json:"exec_ratio"`
	EnergyRatio float64 `json:"energy_ratio"`
	EDPRatio    float64 `json:"edp_ratio"`
}

// Result is the deterministic payload of one design request. It is a pure
// function of the request's Config, so deduplicated and cached requests
// return byte-identical documents; per-request identity (request id, cache
// classification, timings) travels in headers and stream events instead.
type Result struct {
	Schema int `json:"schema"`
	// App and Key identify what was designed: Key is the content hash of
	// (config, app) — the same key that scopes the design cache entry.
	App string `json:"app"`
	Key string `json:"key"`
	// NumIslands echoes the effective VFI count.
	NumIslands int `json:"num_islands"`
	// VFI2FreqGHz is the per-island frequency assignment of the final
	// (post-reassignment) design, Table 2's headline artifact.
	VFI2FreqGHz []float64 `json:"vfi2_freq_ghz"`
	// The five simulated systems of the pipeline.
	Baseline         SystemResult `json:"baseline"`
	VFI1Mesh         SystemResult `json:"vfi1_mesh"`
	VFI2Mesh         SystemResult `json:"vfi2_mesh"`
	WiNoCMinHop      SystemResult `json:"winoc_min_hop"`
	WiNoCMaxWireless SystemResult `json:"winoc_max_wireless"`
	// BestStrategy is the WiNoC placement with the lower full-system EDP,
	// and BestEDPRatio its normalized EDP — the number the paper's Fig. 8
	// reports per application.
	BestStrategy string  `json:"best_strategy"`
	BestEDPRatio float64 `json:"best_edp_ratio"`
	// Governor carries the closed-loop run of governed requests (a policy
	// was set); absent otherwise, leaving ungoverned documents unchanged.
	Governor *GovernorResult `json:"governor,omitempty"`
}

// GovernorResult is the governed run's share of a design result: the run
// itself in the same normalized shape as the static systems, plus the
// governor's decision statistics and power envelope.
type GovernorResult struct {
	Policy string `json:"policy"`
	// CapW is the effective core-power cap (policy "cap" only).
	CapW float64 `json:"cap_w,omitempty"`
	// Governed is the VFI 2 mesh run under the governor, normalized
	// against the same NVFI mesh baseline as every other system.
	Governed SystemResult `json:"governed"`
	// Decision statistics of the run (see governor.Summary).
	Decisions     int `json:"decisions"`
	Transitions   int `json:"transitions"`
	Sheds         int `json:"sheds,omitempty"`
	CapViolations int `json:"cap_violations,omitempty"`
	// MaxPowerW is the maximum measured per-phase core power;
	// WorstCasePowerW the worst-case bound of any admitted configuration.
	MaxPowerW       float64 `json:"max_power_w"`
	WorstCasePowerW float64 `json:"worst_case_power_w"`
}

// ResultSchemaVersion is stamped into every Result; bump it when the
// document's meaning changes.
const ResultSchemaVersion = 1

// buildResult condenses a finished pipeline into the response document;
// gov is the governed run's section for governed requests, nil otherwise.
func buildResult(key string, cfg expt.Config, pl *expt.Pipeline, gov *GovernorResult) *Result {
	sys := func(r *sim.RunResult) SystemResult {
		exec, energy, edp := r.Report.Relative(pl.Baseline.Report)
		return SystemResult{
			ExecSeconds: r.Report.ExecSeconds,
			TotalJ:      r.Report.TotalJ(),
			EDP:         r.Report.EDP(),
			ExecRatio:   exec, EnergyRatio: energy, EDPRatio: edp,
		}
	}
	freqs := make([]float64, len(pl.Plan.VFI2.Points))
	for i, p := range pl.Plan.VFI2.Points {
		freqs[i] = p.FreqGHz
	}
	best := pl.BestWiNoC()
	_, _, bestEDP := best.Report.Relative(pl.Baseline.Report)
	return &Result{
		Schema:           ResultSchemaVersion,
		App:              pl.App.Name,
		Key:              key,
		NumIslands:       cfg.VFI.NumIslands,
		VFI2FreqGHz:      freqs,
		Baseline:         sys(pl.Baseline),
		VFI1Mesh:         sys(pl.VFI1Mesh),
		VFI2Mesh:         sys(pl.VFI2Mesh),
		WiNoCMinHop:      sys(pl.WiNoC[sim.MinHop]),
		WiNoCMaxWireless: sys(pl.WiNoC[sim.MaxWireless]),
		BestStrategy:     pl.BestStrategy.String(),
		BestEDPRatio:     bestEDP,
		Governor:         gov,
	}
}
