package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeterminismAnalyzer guards the byte-identical-results contract in the
// result-producing packages (Config.ResultPackages): no wall clock, no
// global math/rand state, rand sources seeded only from config, and no map
// iteration order feeding float accumulations.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "in result-producing packages, flag time.Now/time.Since (unless " +
		"//lint:wallclock-audited as telemetry-only), math/rand global-state " +
		"use, rand source seeds that are not built from parameters, their " +
		"fields and declared constants, and range-over-map bodies that " +
		"accumulate floats into outer state without a sorted-keys guard " +
		"(//lint:ordered when audited)",
	Keys: []string{"wallclock", "ordered", "seed"},
	Run:  runDeterminism,
}

// wallClockFuncs are the time package entry points that read the wall
// clock. time.Sleep is included: a sleep in a result path means results
// depend on scheduling.
var wallClockFuncs = map[string]bool{
	"time.Now":   true,
	"time.Since": true,
	"time.Until": true,
	"time.Sleep": true,
}

// globalRandFuncs are the math/rand (and v2) package-level functions backed
// by the shared global source. Constructors (New, NewSource, NewZipf) and
// *rand.Rand methods are the sanctioned, seedable path and stay legal.
var globalRandFuncs = map[string]bool{}

func init() {
	for _, name := range []string{
		"Seed", "Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
		"Uint32", "Uint64", "Float32", "Float64", "ExpFloat64",
		"NormFloat64", "Perm", "Shuffle", "Read",
		// math/rand/v2 spellings
		"N", "IntN", "Int32", "Int32N", "Int64", "Int64N",
		"Uint", "UintN", "Uint32N", "Uint64N",
	} {
		globalRandFuncs["math/rand."+name] = true
		globalRandFuncs["math/rand/v2."+name] = true
	}
}

// seedFuncs maps seeded-source constructors to the indices of their seed
// arguments.
var seedFuncs = map[string][]int{
	"math/rand.NewSource":     {0},
	"math/rand/v2.NewPCG":     {0, 1},
	"math/rand/v2.NewChaCha8": {0},
}

func runDeterminism(pass *Pass) {
	if !contains(pass.Config.ResultPackages, pass.Pkg.ImportPath) {
		return
	}
	info := pass.Pkg.Info
	params := paramObjects(pass)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				qname := funcQName(calleeObject(info, n))
				if wallClockFuncs[qname] {
					pass.Reportf(n.Pos(), "wallclock",
						"%s in result-producing package %s: wall clock must never feed results (annotate //lint:wallclock <why> if telemetry-only)",
						qname, pass.Pkg.ImportPath)
				}
				if globalRandFuncs[qname] {
					pass.Reportf(n.Pos(), "",
						"%s uses math/rand global state; use a seeded *rand.Rand local so runs replay byte-identically",
						qname)
				}
				for _, i := range seedFuncs[qname] {
					if i < len(n.Args) {
						checkSeed(pass, params, qname, n.Args[i])
					}
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
}

// checkSeed flags a seed argument unless it combines, with arithmetic and
// conversions only, the leaves a reader can trace to config: parameters,
// fields selected from parameters or receivers, and declared constants.
// Literals may only salt such a leaf (seed + 7). A bare literal, a package
// or local variable and a call result are findings: the stream's identity
// would not be readable from the call site.
func checkSeed(pass *Pass, params map[types.Object]bool, qname string, arg ast.Expr) {
	ok, anchored := seedExpr(pass.Pkg.Info, params, arg)
	switch {
	case ok && !anchored:
		pass.Reportf(arg.Pos(), "seed",
			"seed for %s is a bare literal: name it as a declared constant or derive it from a config/seed parameter so the stream's identity is auditable (annotate //lint:seed <why> if neither fits)", qname)
	case !ok:
		pass.Reportf(arg.Pos(), "seed",
			"seed for %s is not built from parameters, their fields and declared constants: a variable or call result hides the stream's identity from the call site — pass the seed in (annotate //lint:seed <why> if audited)", qname)
	}
}

// seedExpr reports whether e is built only from allowed seed leaves (ok)
// and whether at least one leaf is not a literal (anchored).
func seedExpr(info *types.Info, params map[types.Object]bool, e ast.Expr) (ok, anchored bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return true, false
	case *ast.Ident:
		switch obj := info.Uses[e].(type) {
		case *types.Const:
			return obj.Pkg() != nil, obj.Pkg() != nil
		case *types.Var:
			return params[obj], params[obj]
		}
	case *ast.SelectorExpr:
		if c, isConst := info.Uses[e.Sel].(*types.Const); isConst {
			return true, c.Pkg() != nil
		}
		if root := selectorRoot(e); root != nil && params[info.Uses[root]] {
			return true, true
		}
	case *ast.BinaryExpr:
		xok, xa := seedExpr(info, params, e.X)
		yok, ya := seedExpr(info, params, e.Y)
		return xok && yok, xa || ya
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.XOR {
			return seedExpr(info, params, e.X)
		}
	case *ast.CallExpr:
		if tv, isType := info.Types[e.Fun]; isType && tv.IsType() && len(e.Args) == 1 {
			return seedExpr(info, params, e.Args[0])
		}
	}
	return false, false
}

// selectorRoot returns the identifier a field selection chain x.a.b
// starts from.
func selectorRoot(e *ast.SelectorExpr) *ast.Ident {
	for {
		switch x := ast.Unparen(e.X).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x
		default:
			return nil
		}
	}
}

// paramObjects returns the parameters and receivers of every function and
// closure in the package.
func paramObjects(pass *Pass) map[types.Object]bool {
	params := map[types.Object]bool{}
	add := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			for _, name := range f.Names {
				if obj := pass.Pkg.Info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				add(n.Recv)
				add(n.Type.Params)
			case *ast.FuncLit:
				add(n.Type.Params)
			}
			return true
		})
	}
	return params
}

// checkMapRange flags `range m` over a map whose body writes floats into
// state declared outside the loop: iteration order is random per run, so
// float rounding makes the accumulated value differ between runs. The fix
// is iterating sorted keys; an audited commutative accumulation carries
// //lint:ordered <why>.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	info := pass.Pkg.Info
	tv, ok := info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var hit ast.Node
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if hit != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			// := only creates loop-local variables; they cannot carry
			// order-dependence out of the loop by themselves.
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if isOuterFloatWrite(info, lhs, rng) {
					hit = n
					return false
				}
			}
		case *ast.IncDecStmt:
			if isOuterFloatWrite(info, n.X, rng) {
				hit = n
				return false
			}
		}
		return true
	})
	if hit != nil {
		pass.Reportf(rng.Pos(), "ordered",
			"range over map writes floats into outer state (%s:%d): iteration order is random, so rounding differs per run — iterate sorted keys, or annotate //lint:ordered <why> if audited order-independent",
			pass.suite.relPath(pass.Pkg.Fset.Position(hit.Pos()).Filename),
			pass.Pkg.Fset.Position(hit.Pos()).Line)
	}
}

// isOuterFloatWrite reports whether lhs is a float-typed store whose root
// variable is declared outside the range statement (a result/accumulator),
// as opposed to a loop-local temporary or the iteration variables
// themselves.
func isOuterFloatWrite(info *types.Info, lhs ast.Expr, rng *ast.RangeStmt) bool {
	tv, ok := info.Types[lhs]
	if !ok || !isFloat(tv.Type) {
		return false
	}
	root := rootIdent(lhs)
	if root == nil {
		// Not traceable to a single variable (e.g. a call result);
		// conservatively treat stores through it as escaping.
		return true
	}
	obj := info.Uses[root]
	if obj == nil {
		obj = info.Defs[root]
	}
	if obj == nil {
		return false
	}
	pos := obj.Pos()
	return pos < rng.Pos() || pos > rng.End()
}

// rootIdent walks to the base identifier of an lvalue expression:
// x, x.F.G, x[i], (*x).F all root at x.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}
