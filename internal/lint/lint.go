// Package lint implements sglint, a suite of static analyzers that
// mechanically enforce the SG-tree's cross-cutting contracts: the lock
// discipline around Tree's mutex, buffer-pool page pin/unpin pairing, the
// WAL/undo update-scope rule for structural mutations, the MVCC rule that
// lock-free queries read the tree's shape only through a pinned snapshot,
// atomic-counter access discipline, and a set of banned APIs in
// deterministic or hot-path code. The analyzers mirror the golang.org/x/tools/go/analysis shape
// (Analyzer, Pass, Report) but are self-contained: packages are loaded and
// type-checked with the standard library only (see load.go), so the suite
// builds offline with no external module dependencies.
//
// The contracts themselves are documented in DESIGN.md §9; every analyzer
// there maps to a paper- or PR-level invariant that the compiler cannot
// check on its own.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run inspects a single package and
// reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //sglint:ignore directives. Lowercase, no spaces.
	Name string
	// Doc is a short description printed by `sglint -list`.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, with a resolved file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by position. Findings suppressed by a
// //sglint:ignore directive are dropped; a malformed directive (missing
// analyzer name or reason) is itself reported.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &pkgDiags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		sup, bad := suppressions(pkg)
		diags = append(diags, bad...)
		for _, d := range pkgDiags {
			if !sup.covers(d) {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ignoreDirective is the suppression comment form:
//
//	//sglint:ignore analyzer[,analyzer...] reason text
//
// It silences the named analyzers on the directive's own line and on the
// line directly below it (so it works both as a trailing comment and as a
// comment line above the finding). The reason is mandatory: a suppression
// with no justification is reported as a finding itself.
var ignoreDirective = regexp.MustCompile(`^//sglint:ignore\s+(\S+)(?:\s+(.*))?$`)

// supKey builds the per-line suppression key.
func supKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

type suppressionSet struct {
	byAnalyzer map[string]map[string]bool
}

func (s suppressionSet) covers(d Diagnostic) bool {
	lines := s.byAnalyzer[d.Analyzer]
	if lines == nil {
		return false
	}
	return lines[supKey(d.Pos.Filename, d.Pos.Line)]
}

func suppressions(pkg *Package) (suppressionSet, []Diagnostic) {
	sup := suppressionSet{byAnalyzer: map[string]map[string]bool{}}
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreDirective.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "sglint",
						Message:  "sglint:ignore directive needs a reason: //sglint:ignore <analyzer> <why>",
					})
					continue
				}
				for _, name := range strings.Split(m[1], ",") {
					lines := sup.byAnalyzer[name]
					if lines == nil {
						lines = map[string]bool{}
						sup.byAnalyzer[name] = lines
					}
					lines[supKey(pos.Filename, pos.Line)] = true
					lines[supKey(pos.Filename, pos.Line+1)] = true
				}
			}
		}
	}
	return sup, bad
}

// All returns the full sglint suite in reporting order: the wave-1
// syntactic/graph checks first, then the wave-2 dataflow analyzers.
func All() []*Analyzer {
	return []*Analyzer{
		LockDiscipline,
		PageLife,
		UpdateScope,
		SnapshotLife,
		AtomicCounter,
		NewBannedAPI(DefaultBannedRules()),
		EpochContract,
		ReplFence,
		CtxFlow,
		HotPathAlloc,
	}
}

// Suppression is one //sglint:ignore directive, for auditing (`sglint
// -suppressions`, `make lint-fix-list`).
type Suppression struct {
	Pos       token.Position
	Analyzers []string
	Reason    string
}

// Suppressions lists every //sglint:ignore directive in pkgs, sorted by
// position. Directives with a missing reason are included with an empty
// Reason (Run reports those as findings).
func Suppressions(pkgs []*Package) []Suppression {
	var out []Suppression
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := ignoreDirective.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					out = append(out, Suppression{
						Pos:       pkg.Fset.Position(c.Pos()),
						Analyzers: strings.Split(m[1], ","),
						Reason:    strings.TrimSpace(m[2]),
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}

// exprString renders an expression compactly for diagnostics and for
// matching pin/release pairs (pagelife) and receiver identities
// (lockdiscipline). It is a syntactic rendering: two expressions match iff
// they print identically.
func exprString(e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		b.WriteString(e.Name)
	case *ast.SelectorExpr:
		writeExpr(b, e.X)
		b.WriteByte('.')
		b.WriteString(e.Sel.Name)
	case *ast.ParenExpr:
		writeExpr(b, e.X)
	case *ast.StarExpr:
		b.WriteByte('*')
		writeExpr(b, e.X)
	case *ast.UnaryExpr:
		b.WriteString(e.Op.String())
		writeExpr(b, e.X)
	case *ast.IndexExpr:
		writeExpr(b, e.X)
		b.WriteByte('[')
		writeExpr(b, e.Index)
		b.WriteByte(']')
	case *ast.CallExpr:
		writeExpr(b, e.Fun)
		b.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			writeExpr(b, a)
		}
		b.WriteByte(')')
	case *ast.BasicLit:
		b.WriteString(e.Value)
	default:
		fmt.Fprintf(b, "<%T>", e)
	}
}
