// Package lint implements the setdisclint analyzers: project-specific
// static checks that prove, at compile time, the disciplines this codebase
// otherwise enforces by review and runtime leak counters.
//
// The analyzers:
//
//   - poolcheck: every pooled dataset.Subset obtained from a Scratch
//     partition source reaches Release on all paths out of the acquiring
//     function, or is explicitly Unpooled/returned; stores that
//     transfer ownership must carry a "// lint:owns" marker.
//   - decoderbounds: in untrusted codecs, allocation sizes and loop bounds
//     derived from decoded input must be dominated by a bound check.
//   - errcmp: errors are classified with errors.Is/As, never by message
//     substring or by == against a freshly built error.
//
// The package is deliberately dependency-free: it implements the small
// slice of the golang.org/x/tools/go/analysis surface the three analyzers
// need (Analyzer, Pass, Diagnostic) on top of go/ast and go/types, so the
// tool builds with the standard library alone. cmd/setdisclint wraps the
// analyzers in a driver speaking the `go vet -vettool` protocol.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the checks could migrate to
// the real framework without rewrites if the dependency ever lands.
type Analyzer struct {
	// Name is the analyzer identifier used in vet flags (-poolcheck)
	// and JSON output keys. Must be a valid identifier.
	Name string
	// Doc is the one-paragraph description shown by -help.
	Doc string
	// Run performs the check over one package and reports findings
	// through pass.Report.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one finding. The driver owns ordering and output
	// formatting.
	Report func(Diagnostic)

	markers markerIndex
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{PoolCheck, DecoderBounds, ErrCmp}
}

// InTestFile reports whether pos lies in a _test.go file. The disciplines
// are production-code rules: tests legitimately compare errors directly and
// build subsets they never release.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// Marker annotations. A marker comment anywhere on a line — trailing or on
// the line immediately above a statement — opts that line out of one rule:
//
//	s.cs = applyScratch(old, e, a, s.scratch) // lint:owns — session owns cs
//
// Recognised markers: "lint:owns" (poolcheck: this store is a deliberate
// ownership transfer) and "lint:bounded" (decoderbounds: this size is
// bounded by construction).
type markerIndex map[markerKey]bool

type markerKey struct {
	file   string
	line   int
	marker string
}

func (p *Pass) buildMarkers() {
	if p.markers != nil {
		return
	}
	p.markers = markerIndex{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range []string{"lint:owns", "lint:bounded"} {
					if !strings.Contains(c.Text, m) {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					// The marker covers its own line and the
					// following one, so it works both as a
					// trailing comment and as a lead-in line.
					p.markers[markerKey{pos.Filename, pos.Line, m}] = true
					p.markers[markerKey{pos.Filename, pos.Line + 1, m}] = true
				}
			}
		}
	}
}

// HasMarker reports whether the line containing pos carries the given
// marker comment (on the same line or the line above).
func (p *Pass) HasMarker(pos token.Pos, marker string) bool {
	p.buildMarkers()
	where := p.Fset.Position(pos)
	return p.markers[markerKey{where.Filename, where.Line, marker}]
}

// funcName renders a function or method name for diagnostics.
func funcName(decl *ast.FuncDecl) string {
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		t := decl.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + decl.Name.Name
		}
		if idx, ok := t.(*ast.IndexExpr); ok {
			if id, ok := idx.X.(*ast.Ident); ok {
				return id.Name + "." + decl.Name.Name
			}
		}
	}
	return decl.Name.Name
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil for
// calls through function values, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call: binary.Uvarint(...).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isConversion reports whether call is a type conversion, not a function
// call.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// builtinName returns the name of the builtin a call invokes ("make",
// "append", "len", ...) or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
