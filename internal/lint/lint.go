// Package lint is the repo's custom static-analysis suite: a small,
// stdlib-only analyzer framework (go/parser + go/types, no x/tools
// dependency, so it runs offline) plus the six analyzers that
// mechanically enforce the contracts the paper reproduction depends on.
// Every analyzer is a per-package AST rule; none needs a control-flow
// graph or whole-program analysis.
//
//   - determinism: result-producing packages must not let wall clock,
//     global math/rand state, untraceable rand seeds, or unordered map
//     iteration feed floats into results. The fidelity scoreboard and
//     timeline exports are regression-gated on byte-identical output
//     across -j levels and cache states; one `range` over a map that
//     reorders a float accumulation breaks every downstream gate. A
//     rand.NewSource / randv2.NewPCG / randv2.NewChaCha8 seed may only
//     combine parameters, their fields and declared constants.
//   - nilsafe: exported methods on obs/timeline collector types must begin
//     with a nil-receiver guard, keeping the disabled telemetry path a
//     zero-alloc no-op.
//   - stdoutpure: fmt.Print*/os.Stdout writes are forbidden outside cmd/*
//     and examples/* render paths, protecting the byte-identical-stdout
//     gate.
//   - countersafe: obs counter/gauge names must come from declared
//     constants, so a typo'd metric name is a compile-visible diagnostic
//     instead of a silently empty manifest row.
//   - locksafe: a Lock is followed by `defer Unlock` or unlocked by a later
//     statement of the same block, and the region in between holds no
//     channel operation, pool admission, early exit, or call to a function
//     of the same package that locks the same mutex field.
//   - leaksafe: goroutines launched in result packages need a join/cancel
//     path (WaitGroup or channel).
//
// The cache-key contracts (every expt.Config field feeds the content hash,
// every serve.Request and sweep.Scenario field changes its key) are
// reflection tests in those packages, which fail on a new field.
//
// Audited exceptions are annotated in source as `//lint:<key> <reason>` on
// the offending line or the line above; annotations without a reason, with
// an unknown key, or that no longer suppress anything are themselves
// findings, so the audit trail cannot rot.
//
// The suite runs three ways with identical results: `wivfi-lint ./...`
// (the CLI), `go test ./internal/lint` (the repo gate), and the CI lint
// step.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic: a contract violation or a rotten suppression
// annotation.
type Finding struct {
	File     string `json:"file"` // path relative to the module root
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Key      string `json:"key,omitempty"` // suppression key that would silence it
	Message  string `json:"message"`
}

// String renders the canonical `file:line: [analyzer] message` form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Analyzer is one named check run over every loaded package.
type Analyzer struct {
	Name string
	Doc  string
	// Keys lists the suppression keys this analyzer honours; a
	// `//lint:<key>` annotation with a key no analyzer lists is a finding.
	Keys []string
	Run  func(*Pass)
}

// Pass hands one package to one analyzer.
type Pass struct {
	Config   Config
	Pkg      *Package
	analyzer *Analyzer
	suite    *Suite
}

// Reportf records a finding at pos unless an in-source annotation with the
// given suppression key covers that line. key may be empty for findings
// that must not be suppressible.
func (p *Pass) Reportf(pos token.Pos, key, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	line := position.Line
	if key != "" && p.Pkg.suppressions.use(position.Filename, line, key) {
		return
	}
	p.suite.findings = append(p.suite.findings, Finding{
		File:     p.suite.relPath(position.Filename),
		Line:     line,
		Analyzer: p.analyzer.Name,
		Key:      key,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Config scopes the analyzers. Paths are import paths; DefaultConfig wires
// the repo's real layout, tests substitute fixture packages.
type Config struct {
	// ModulePath is the module's import-path prefix ("wivfi").
	ModulePath string
	// ResultPackages are the packages whose outputs are regression-gated
	// byte-identical artifacts; determinism and leaksafe run only there.
	ResultPackages []string
	// StdoutAllowed are import-path prefixes permitted to write to stdout
	// (the render paths: cmd/*, examples/*).
	StdoutAllowed []string
	// NilsafePackages are scanned for collector types (types whose doc
	// comment declares the nil-receiver no-op contract).
	NilsafePackages []string
	// NilsafeTypes are always treated as collector types when present,
	// qualified as "import/path.TypeName" — deleting the doc comment must
	// not waive the check for the core primitives.
	NilsafeTypes []string
	// MetricFuncs are the constructors whose name argument must be a
	// declared constant, qualified as "import/path.FuncName".
	MetricFuncs []string
	// PoolTypes are the bounded worker-pool types whose Run method waits
	// for admission slots, qualified as "import/path.TypeName"; locksafe
	// treats it as a blocking call.
	PoolTypes []string
}

// DefaultConfig returns the production configuration for this repo.
func DefaultConfig(modulePath string) Config {
	q := func(rels ...string) []string {
		out := make([]string, len(rels))
		for i, r := range rels {
			out[i] = modulePath + "/" + r
		}
		return out
	}
	return Config{
		ModulePath: modulePath,
		ResultPackages: q(
			"internal/noc", "internal/mapreduce", "internal/expt",
			"internal/vfi", "internal/qp", "internal/energy",
			"internal/topo", "internal/place", "internal/sched",
			"internal/stats", "internal/fidelity", "internal/serve",
			"internal/governor", "internal/sweep",
		),
		StdoutAllowed:   []string{modulePath + "/cmd/", modulePath + "/examples/"},
		NilsafePackages: q("internal/obs", "internal/timeline", "internal/governor"),
		NilsafeTypes: []string{
			modulePath + "/internal/timeline.Collector",
			modulePath + "/internal/timeline.Sampler",
			modulePath + "/internal/timeline.Histogram",
			modulePath + "/internal/timeline.Track",
			modulePath + "/internal/governor.Log",
		},
		MetricFuncs: []string{
			modulePath + "/internal/obs.NewCounter",
			modulePath + "/internal/obs.NewGauge",
			modulePath + "/internal/obs.RegisterHistogram",
		},
		PoolTypes: []string{modulePath + "/internal/sim.Pool"},
	}
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		NilsafeAnalyzer,
		StdoutPureAnalyzer,
		CounterSafeAnalyzer,
		LockSafeAnalyzer,
		LeakSafeAnalyzer,
	}
}

// Suite runs a set of analyzers over loaded packages and owns the finding
// list and suppression hygiene.
type Suite struct {
	Config Config
	// Root is the directory findings are reported relative to (the module
	// root in production, the fixture dir in tests).
	Root string

	findings []Finding
}

// NewSuite returns a suite running the full analyzer set.
func NewSuite(cfg Config, root string) *Suite {
	return &Suite{Config: cfg, Root: root}
}

func (s *Suite) relPath(file string) string {
	if s.Root == "" {
		return file
	}
	rel := strings.TrimPrefix(file, strings.TrimSuffix(s.Root, "/")+"/")
	return rel
}

// Run analyzes the given packages and returns the sorted findings. It runs
// every analyzer over every package, then audits the suppression
// annotations themselves: an annotation with no reason, an unknown key, or
// one that silenced nothing is a finding.
func (s *Suite) Run(pkgs []*Package) []Finding {
	analyzers := Analyzers()
	known := map[string]bool{}
	for _, a := range analyzers {
		for _, k := range a.Keys {
			known[k] = true
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Config: s.Config, Pkg: pkg, analyzer: a, suite: s})
		}
		for _, sup := range pkg.suppressions.all() {
			switch {
			case !known[sup.key]:
				s.findings = append(s.findings, Finding{
					File: s.relPath(sup.file), Line: sup.line, Analyzer: "annotation",
					Message: fmt.Sprintf("unknown suppression key %q (have %s)", sup.key, strings.Join(sortedKeys(known), ", ")),
				})
			case sup.reason == "":
				s.findings = append(s.findings, Finding{
					File: s.relPath(sup.file), Line: sup.line, Analyzer: "annotation",
					Message: fmt.Sprintf("//lint:%s needs a one-line justification after the key", sup.key),
				})
			case !sup.used:
				s.findings = append(s.findings, Finding{
					File: s.relPath(sup.file), Line: sup.line, Analyzer: "annotation",
					Message: fmt.Sprintf("//lint:%s suppresses nothing here — remove the stale annotation", sup.key),
				})
			}
		}
	}
	sort.Slice(s.findings, func(i, j int) bool {
		a, b := s.findings[i], s.findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return s.findings
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- shared analyzer helpers ----------------------------------------------

// contains reports whether list has exactly s.
func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// hasPrefixAny reports whether s starts with any of the prefixes.
func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// funcQName returns "import/path.Name" for a package-level function or
// method-less callee object, or "" when obj is not a function.
func funcQName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// calleeObject resolves the object a call expression invokes, looking
// through parens. Returns nil for builtins, conversions and indirect calls.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// staticCallee resolves the *types.Func a call invokes, including methods;
// nil for builtins, conversions, and indirect calls through values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := calleeObject(info, call).(*types.Func)
	return fn
}

// methodFullName returns go/types' FullName for the callee when the call
// invokes a method, e.g. "(*sync.Mutex).Lock"; "" otherwise.
func methodFullName(info *types.Info, call *ast.CallExpr) string {
	fn := staticCallee(info, call)
	if fn == nil || fn.Type().(*types.Signature).Recv() == nil {
		return ""
	}
	return fn.FullName()
}

// typeQName renders a (possibly pointer-wrapped) named type as
// "import/path.Name", or "".
func typeQName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// isFloat reports whether t's core type is a floating-point kind.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
