// Package lint implements the determinism contract of the StarT-Voyager
// simulator as a suite of static analyzers.
//
// The simulator's value rests on one invariant: two runs with the same seed
// are bit-identical. internal/sim guarantees strict (time, seq) event order,
// but nothing stops model code from smuggling nondeterminism back in — a
// stray time.Now(), a global math/rand call, an unordered map iteration
// feeding the scheduler, or a raw goroutine racing the engine. Each analyzer
// here encodes one such rule so the contract is checked by machine on every
// change rather than by reviewer vigilance.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is self-contained on the standard
// library: packages are type-checked against compiler export data obtained
// from `go list -export` (see load.go), so the module needs no external
// dependencies. Analyzers are pure functions of a type-checked package,
// driven by cmd/voyager-vet or by the linttest harness.
//
// Suppression: a finding can be silenced with a justification comment on
// the same line or the line immediately above:
//
//	//lint:allow <analyzer> <why this is safe>
//
// nomaporder additionally accepts the spelling //lint:ordered <why>, for
// map ranges whose body is genuinely order-insensitive.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one determinism rule and how to check it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer forbids and why.
	Doc string
	// Run checks one package, reporting findings through the pass.
	Run func(*Pass) error
	// Applies reports whether the analyzer covers the given import path.
	// The drivers consult it; test harnesses run analyzers unconditionally.
	Applies func(pkgPath string) bool
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name
	Message  string
}

// A Pass holds one type-checked package being analyzed plus the Report sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags      []Diagnostic
	suppressed map[suppressKey]bool // built lazily from //lint: comments
}

type suppressKey struct {
	file     string
	line     int
	analyzer string
}

// Reportf records a finding at pos unless a //lint:allow comment covers it.
// Findings in _test.go files are dropped: the determinism contract governs
// model code (tests may use host-side channels and shorthand literals, and
// are exercised under -race instead).
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.buildSuppressions()
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	if p.suppressed[suppressKey{position.Filename, position.Line, p.Analyzer.Name}] {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Category: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings reported so far, in position order.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool { return p.diags[i].Pos < p.diags[j].Pos })
	return p.diags
}

// buildSuppressions scans file comments once for //lint: directives. A
// directive covers its own source line and the line directly below it, so
// both trailing and preceding comment placement work.
func (p *Pass) buildSuppressions() {
	if p.suppressed != nil {
		return
	}
	p.suppressed = make(map[suppressKey]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				position := p.Fset.Position(c.Pos())
				for _, name := range names {
					p.suppressed[suppressKey{position.Filename, position.Line, name}] = true
					p.suppressed[suppressKey{position.Filename, position.Line + 1, name}] = true
				}
			}
		}
	}
}

// parseDirective recognizes //lint:allow and //lint:ordered comments and
// returns the analyzer names they silence.
func parseDirective(text string) ([]string, bool) {
	const allow, ordered = "//lint:allow ", "//lint:ordered"
	if strings.HasPrefix(text, allow) {
		fields := strings.Fields(text[len(allow):])
		if len(fields) == 0 {
			return nil, false
		}
		return fields[:1], true
	}
	if text == ordered || strings.HasPrefix(text, ordered+" ") {
		return []string{"nomaporder"}, true
	}
	return nil, false
}

// Suite is every determinism analyzer, in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		NoWallTime,
		NoGlobalRand,
		NoMapOrder,
		NoGoroutine,
		SimTimeUnits,
		SpanLeak,
		NoAlloc,
	}
}

// simPkgPath is the import path of the simulation engine; several analyzers
// special-case it (its types mark order-sensitive operations).
const simPkgPath = "startvoyager/internal/sim"

// isModelPackage reports whether path is one of the simulator's model
// packages (everything under internal/).
func isModelPackage(path string) bool {
	return strings.HasPrefix(path, "startvoyager/internal/")
}

// pkgNameOf returns the imported package's path if id names a package
// (e.g. the `time` in time.Now), or "" otherwise.
func pkgNameOf(info *types.Info, id *ast.Ident) string {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// selectorPkgFunc matches expressions of the form pkg.Name where pkg is an
// imported package identifier; it returns the package path and selected name.
func selectorPkgFunc(info *types.Info, e ast.Expr) (pkgPath, name string, sel *ast.SelectorExpr) {
	s, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", "", nil
	}
	id, ok := s.X.(*ast.Ident)
	if !ok {
		return "", "", nil
	}
	path := pkgNameOf(info, id)
	if path == "" {
		return "", "", nil
	}
	return path, s.Sel.Name, s
}
