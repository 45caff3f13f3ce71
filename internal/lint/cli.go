package lint

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
)

// Exit codes of the wivfi-lint CLI.
const (
	ExitClean    = 0
	ExitFindings = 1
	ExitError    = 2
)

// RunCLI is the whole wivfi-lint command: parse flags, load the packages
// matched by the argument patterns (default ./...), run every analyzer,
// print findings. It returns the process exit code, so the cmd/wivfi-lint
// shim is one line and tests drive the real thing.
func RunCLI(args []string, cwd string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wivfi-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (machine-readable, for CI artifacts)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: wivfi-lint [-json] [packages]\n\n"+
			"Analyzers:\n")
		for _, a := range Analyzers() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitError
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := Lint(cwd, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "wivfi-lint: %v\n", err)
		return ExitError
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "wivfi-lint: %v\n", err)
			return ExitError
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "wivfi-lint: %d finding(s)\n", len(findings))
		return ExitFindings
	}
	return ExitClean
}

// Lint loads the packages matched by patterns (resolved against cwd inside
// the enclosing module) and runs the full suite over them under the repo's
// production config.
func Lint(cwd string, patterns []string) ([]Finding, error) {
	mod, err := FindModule(cwd)
	if err != nil {
		return nil, err
	}
	pkgs, err := NewLoader(mod).LoadPatterns(patterns, cwd)
	if err != nil {
		return nil, err
	}
	return NewSuite(DefaultConfig(mod.Path), mod.Root).Run(pkgs), nil
}
