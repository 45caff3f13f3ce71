// Command wivfi-lint runs the repo's custom analyzer suite
// (internal/lint): determinism, nilsafe, stdoutpure, countersafe,
// locksafe, leaksafe. It prints one `file:line: [analyzer] message`
// diagnostic per finding (or a JSON array with -json) and exits non-zero
// when any contract is violated.
//
// Usage:
//
//	wivfi-lint ./...
//	wivfi-lint ./internal/noc ./internal/sweep
//	wivfi-lint -json ./... > lint.json
package main

import (
	"os"

	"wivfi/internal/lint"
)

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		os.Stderr.WriteString("wivfi-lint: " + err.Error() + "\n")
		os.Exit(lint.ExitError)
	}
	os.Exit(lint.RunCLI(os.Args[1:], cwd, os.Stdout, os.Stderr))
}
