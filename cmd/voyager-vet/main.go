// Command voyager-vet checks the simulator's determinism contract: a
// multichecker that runs the internal/lint analyzer suite (nowalltime,
// noglobalrand, nomaporder, nogoroutine, simtimeunits, spanleak, noalloc)
// and, by default, the standard `go vet` passes over the same packages.
//
// Usage:
//
//	voyager-vet [-novet] [-json] [packages]  # default: ./...
//
// The tool loads, type-checks, and analyzes every matching package,
// printing findings as file:line:col: [analyzer] message and exiting 2 if
// any are found. With -json the findings are instead emitted on stdout as a
// sorted JSON array of {file, line, col, analyzer, message} objects
// (deterministic across runs, [] when clean) for CI annotation.
//
// Findings are suppressed with a justification comment on the same line or
// the one above: //lint:allow <analyzer> <why> (nomaporder also accepts
// //lint:ordered <why>). See the "Determinism rules" section of DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"startvoyager/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("voyager-vet", flag.ExitOnError)
	novet := fs.Bool("novet", false, "skip the standard `go vet` passes")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (file/line/col/analyzer/message) on stdout")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: voyager-vet [-novet] [-json] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Determinism analyzers:\n")
		for _, a := range lint.Suite() {
			fmt.Fprintf(fs.Output(), "  %-13s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	exit := 0
	if !*novet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		// With -json, stdout is reserved for the findings array; the
		// standard vet passes report on stderr instead.
		if *jsonOut {
			cmd.Stdout = os.Stderr
		} else {
			cmd.Stdout = os.Stdout
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			exit = 2
		}
	}

	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "voyager-vet:", err)
		return 1
	}
	var findings []lint.Finding
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "voyager-vet: %s: type error: %v\n", pkg.Path, terr)
			exit = 1
		}
		diags, err := lint.RunAnalyzers(pkg, lint.Suite())
		if err != nil {
			fmt.Fprintln(os.Stderr, "voyager-vet:", err)
			return 1
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if *jsonOut {
				findings = append(findings, lint.Finding{
					File:     relPath(pos.Filename),
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: d.Category,
					Message:  d.Message,
				})
			} else {
				fmt.Printf("%s: [%s] %s\n", pos, d.Category, d.Message)
			}
			if exit == 0 {
				exit = 2
			}
		}
	}
	if *jsonOut {
		if err := lint.WriteFindingsJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "voyager-vet:", err)
			return 1
		}
	}
	return exit
}

// relPath rewrites name relative to the working directory when it lies
// beneath it, keeping -json artifacts machine-independent.
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	rel, err := filepath.Rel(wd, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return rel
}
