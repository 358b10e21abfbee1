package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// TypeErrors holds non-fatal type-checking problems. Analyzers still run
	// (the AST is complete); drivers surface these separately.
	TypeErrors []error
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -json -deps patterns...` in dir and decodes
// the package stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup builds the importer lookup function over the export files
// that `go list -export` produced for the dependency closure.
func exportLookup(pkgs []*listedPackage) func(path string) (io.ReadCloser, error) {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}

// newInfo allocates a types.Info with every map analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// Load parses and type-checks the non-test sources of every package
// matching patterns (resolved in dir, "" meaning the current directory),
// returning them in deterministic import-path order.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	lookup := exportLookup(listed)
	fset := token.NewFileSet()
	var out []*Package
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		var paths []string
		for _, f := range lp.GoFiles {
			paths = append(paths, filepath.Join(lp.Dir, f))
		}
		pkg, err := checkFiles(fset, lp.ImportPath, paths, lookup)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// checkFiles parses and type-checks one package from explicit file paths,
// resolving imports through lookup.
func checkFiles(fset *token.FileSet, importPath string, files []string,
	lookup func(string) (io.ReadCloser, error)) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	info := newInfo()
	var typeErrs []error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, fset, syntax, info)
	return &Package{
		Path:       importPath,
		Fset:       fset,
		Files:      syntax,
		Pkg:        tpkg,
		Info:       info,
		TypeErrors: typeErrs,
	}, nil
}

// RunAnalyzers applies each analyzer whose Applies policy covers the
// package, returning all findings in position order.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
		}
		out = append(out, pass.Diagnostics()...)
	}
	return out, nil
}
