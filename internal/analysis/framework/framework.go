// Package framework is the chassis of cosmoslint: a self-contained
// reimplementation of the core golang.org/x/tools/go/analysis surface
// (Analyzer, Pass, diagnostics, an analysistest-style harness) on the
// standard library alone. The build environment vendors no third-party
// modules, so the x/tools driver cannot be imported; the API here is
// deliberately shaped like go/analysis so the analyzers under
// internal/analysis/* read idiomatically and could be ported to the real
// framework by swapping imports.
//
// Two deliberate deviations from go/analysis:
//
//   - A Pass sees the whole Program, not just one package. The repo's
//     invariants are cross-package (a //cosmos:hotpath function in
//     internal/exec calls into internal/obs), and facts-style export is
//     far more machinery than a program-wide annotation index.
//   - Suppression is built in: a `//lint:ignore <analyzers> <reason>`
//     comment on the diagnostic's line, or the line above it, silences
//     the named analyzers. The reason is mandatory — an undocumented
//     suppression is itself reported.
//
// # Annotations
//
// The index recognises two machine-checked source annotations, written
// as directive comments in declaration doc blocks:
//
//	//cosmos:hotpath     — the function is on the per-tuple data path:
//	                       the hotpath analyzer checks its body, and it
//	                       may be called from other hotpath functions.
//	//cosmos:hotpath-ok  — the declaration (function, method, interface
//	                       method, named func type, or func-valued
//	                       field/var) is callable from hotpath code but
//	                       is not itself checked: an audited boundary,
//	                       e.g. a sink contract pinned by its own
//	                       AllocsPerRun benchmarks.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one static check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and lint:ignore
	// comments. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph contract shown by `cosmoslint -list`.
	Doc string
	// Run executes the check against one package of the program.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned in the program's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Package is one type-checked package of the loaded program.
type Package struct {
	PkgPath   string
	Dir       string
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer  *Analyzer
	Prog      *Program
	Pkg       *Package
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Program is the whole loaded-and-type-checked target. Roots are the
// packages named by the load patterns — the ones analyzers run over.
// Packages additionally includes same-module dependencies parsed from
// source so their annotations are indexed even on partial runs;
// out-of-module dependencies are consumed as export data and carry no
// syntax.
type Program struct {
	Fset     *token.FileSet
	Roots    []*Package
	Packages []*Package

	annots map[types.Object]Annot
}

// Annot is the set of cosmos directive annotations on one declaration.
type Annot uint8

// Annotation bits; see the package comment for their contracts.
const (
	AnnotHotpath Annot = 1 << iota
	AnnotHotpathOK
)

// Annot returns the directive annotations on obj's declaration, or 0.
// Declarations of every loaded package are indexed, so a hotpath
// function in one package can vouch for its callees in another; a call
// through a generic instantiation resolves to the generic declaration.
func (prog *Program) Annot(obj types.Object) Annot {
	if f, ok := obj.(*types.Func); ok {
		obj = f.Origin()
	}
	if obj == nil {
		return 0
	}
	return prog.annots[obj]
}

// HasPackage reports whether path was loaded from source (i.e. its
// declarations are annotation-indexed). Dependencies that arrived as
// export data are not "in" the program.
func (prog *Program) HasPackage(path string) bool {
	for _, p := range prog.Packages {
		if p.PkgPath == path {
			return true
		}
	}
	return false
}

// groupHasDirective reports whether a comment group carries the given
// //cosmos: directive as a whole comment line.
func groupHasDirective(g *ast.CommentGroup, directive string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

func annotOf(groups ...*ast.CommentGroup) Annot {
	var a Annot
	for _, g := range groups {
		if groupHasDirective(g, "//cosmos:hotpath") {
			a |= AnnotHotpath
		}
		if groupHasDirective(g, "//cosmos:hotpath-ok") {
			a |= AnnotHotpathOK
		}
	}
	return a
}

// buildAnnotIndex walks every loaded package's declarations and records
// cosmos directives against their types.Object, so analyzers resolve
// annotations through the type checker instead of re-parsing comments.
func (prog *Program) buildAnnotIndex() {
	prog.annots = map[types.Object]Annot{}
	record := func(obj types.Object, a Annot) {
		if obj != nil && a != 0 {
			prog.annots[obj] |= a
		}
	}
	for _, pkg := range prog.Packages {
		info := pkg.TypesInfo
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					record(info.Defs[d.Name], annotOf(d.Doc))
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							// A single-spec GenDecl's doc conventionally
							// belongs to the spec.
							a := annotOf(d.Doc, s.Doc, s.Comment)
							record(info.Defs[s.Name], a)
							indexTypeMembers(info, s.Type, record)
						case *ast.ValueSpec:
							a := annotOf(d.Doc, s.Doc, s.Comment)
							for _, name := range s.Names {
								record(info.Defs[name], a)
							}
						}
					}
				}
			}
		}
	}
}

// indexTypeMembers records annotations on struct fields and interface
// methods (both are ast.Fields with their own doc/line comments).
func indexTypeMembers(info *types.Info, typ ast.Expr, record func(types.Object, Annot)) {
	switch t := typ.(type) {
	case *ast.StructType:
		for _, field := range t.Fields.List {
			a := annotOf(field.Doc, field.Comment)
			for _, name := range field.Names {
				record(info.Defs[name], a)
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			a := annotOf(m.Doc, m.Comment)
			for _, name := range m.Names {
				record(info.Defs[name], a)
			}
		}
	}
}

// ignoreRe matches `lint:ignore <analyzers> <reason>` in a comment;
// <analyzers> is a comma-separated list of analyzer names (each
// optionally prefixed "cosmoslint/") and the reason is mandatory.
var ignoreRe = regexp.MustCompile(`lint:ignore\s+(\S+)\s*(.*)$`)

// suppressed reports whether d is silenced by a lint:ignore comment on
// its line or the line directly above, and returns a non-nil diagnostic
// replacing it when the suppression itself is malformed.
func (prog *Program) suppressed(pkg *Package, d Diagnostic) (bool, *Diagnostic) {
	pos := prog.Fset.Position(d.Pos)
	var file *ast.File
	for _, f := range pkg.Syntax {
		if prog.Fset.Position(f.Pos()).Filename == pos.Filename {
			file = f
			break
		}
	}
	if file == nil {
		return false, nil
	}
	for _, g := range file.Comments {
		for _, c := range g.List {
			m := ignoreRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			cline := prog.Fset.Position(c.Pos()).Line
			if cline != pos.Line && cline != pos.Line-1 {
				continue
			}
			names := strings.Split(m[1], ",")
			applies := false
			for _, n := range names {
				n = strings.TrimPrefix(strings.TrimSpace(n), "cosmoslint/")
				if n == d.Analyzer || n == "*" {
					applies = true
				}
			}
			if !applies {
				continue
			}
			if strings.TrimSpace(m[2]) == "" {
				rep := Diagnostic{
					Pos:      c.Pos(),
					Analyzer: d.Analyzer,
					Message:  "lint:ignore without a reason — document why the finding is acceptable",
				}
				return true, &rep
			}
			return true, nil
		}
	}
	return false, nil
}

// RunAnalyzers executes every analyzer over every root package of the
// program and returns the surviving diagnostics sorted by position.
// lint:ignore suppression is applied here so the driver, the tests and
// the vettool mode agree on what counts as a finding.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range prog.Roots {
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Prog:      prog,
				Pkg:       pkg,
				Fset:      prog.Fset,
				Files:     pkg.Syntax,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
			}
			for _, d := range diags {
				ok, replacement := prog.suppressed(pkg, d)
				if replacement != nil {
					all = append(all, *replacement)
				}
				if !ok {
					all = append(all, d)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		pi, pj := prog.Fset.Position(all[i].Pos), prog.Fset.Position(all[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all, nil
}
