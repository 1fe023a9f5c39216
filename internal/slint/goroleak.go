package slint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// GoroLeak requires every go statement in the engine packages to have a
// provable shutdown edge, so the slidbd drain path cannot silently strand
// goroutines.
//
// A spawned function is considered shut-downable when one of these is
// reachable from it, directly or transitively through calls:
//
//   - a receive or select case on a stop-like channel (a name containing
//     stop, done, quit, exit, close, shutdown or drain) or on ctx.Done()
//   - a range over a channel (the loop ends when the producer closes it —
//     a consumer draining a queue its producer closes on shutdown)
//   - a sync.Cond Wait loop (the flusher's closed-flag + Wait pattern,
//     where Broadcast on close wakes the loop to observe the flag)
//   - no unbounded `for {}` loop at all: a goroutine that provably falls
//     off its own end (the one-shot completion-forwarding pattern) needs
//     no shutdown edge
//
// Shutdown-ness propagates across packages as an object Fact on the spawned
// function, so `go obs.Collector.loop` in core is provable even though the
// select on the stop channel lives in obs.
//
// The check applies to go statements in the engine packages (core, wal,
// obs, lockmgr, slidbd, and the goroleak fixture stand-in); facts are
// exported from every package so engine spawns of library helpers resolve.
var GoroLeak = &analysis.Analyzer{
	Name:      "goroleak",
	Doc:       "require a provable shutdown edge for every go statement in engine packages",
	Run:       runGoroLeak,
	FactTypes: []analysis.Fact{(*goroShutdownFact)(nil)},
}

// goroShutdownFact marks a function as having a provable shutdown edge.
// Via records what proves it, for diagnostics and // wantfact assertions.
type goroShutdownFact struct {
	Via string
}

func (*goroShutdownFact) AFact()           {}
func (f *goroShutdownFact) String() string { return "shutdown via " + f.Via }

// enginePkgs are the package base names whose go statements are checked.
var enginePkgs = []string{"core", "wal", "obs", "lockmgr", "slidbd", "goroleak"}

func runGoroLeak(pass *analysis.Pass) (interface{}, error) {
	// Phase 1: per-function shutdown summaries for this package, to a
	// fixpoint (shutdown-ness flows from callee to caller).
	funcs := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				funcs[fn] = fd
			}
		}
	}
	via := make(map[*types.Func]string)
	hasShutdown := func(fn *types.Func) (string, bool) {
		if v, ok := via[fn]; ok {
			return v, true
		}
		var fact goroShutdownFact
		if pass.ImportObjectFact(fn, &fact) {
			return fact.Via, true
		}
		return "", false
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range funcs {
			if _, done := via[fn]; done {
				continue
			}
			if v, ok := shutdownConstruct(pass, fd.Body); ok {
				via[fn] = v
				changed = true
				continue
			}
			// Transitively: calling a shut-downable function counts.
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
				if !ok || callee == fn {
					return true
				}
				if v, ok := hasShutdown(callee); ok {
					via[fn] = fmt.Sprintf("call to %s (%s)", callee.Name(), v)
					found = true
				}
				return true
			})
			if found {
				changed = true
			}
		}
	}
	for fn, v := range via {
		fact := &goroShutdownFact{Via: v}
		pass.ExportObjectFact(fn, fact)
	}

	// Phase 2: check go statements, engine packages only.
	engine := false
	for _, base := range enginePkgs {
		if fromPkg(pass.Pkg, base) {
			engine = true
			break
		}
	}
	if !engine {
		return nil, nil
	}
	idx := buildDirectiveIndex(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, idx, g, via)
			return true
		})
	}
	return nil, nil
}

func checkGoStmt(pass *analysis.Pass, idx *directiveIndex, g *ast.GoStmt, via map[*types.Func]string) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		if _, ok := shutdownConstruct(pass, fun.Body); ok {
			return
		}
		if !hasUnboundedLoop(fun.Body) {
			return // one-shot goroutine: terminates on its own
		}
		// The literal may delegate to a shut-downable function.
		found := false
		ast.Inspect(fun.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if callee, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func); ok {
				if _, ok := via[callee]; ok {
					found = true
				}
				var fact goroShutdownFact
				if pass.ImportObjectFact(callee, &fact) {
					found = true
				}
			}
			return true
		})
		if !found {
			report(pass, idx, g,
				"go statement spawns a loop with no provable shutdown edge: no stop/done channel, context, channel range or Cond.Wait is reachable — a drain leaves this goroutine stranded")
		}
	default:
		callee, ok := typeutil.Callee(pass.TypesInfo, g.Call).(*types.Func)
		if !ok {
			report(pass, idx, g,
				"go statement spawns a dynamic function value: shutdown cannot be proven — spawn a named function with a stop edge instead")
			return
		}
		if _, ok := via[callee]; ok {
			return
		}
		var fact goroShutdownFact
		if pass.ImportObjectFact(callee, &fact) {
			return
		}
		// A callee defined in this package with no summary: shut-downable
		// only if it has no unbounded loop.
		if fd := declOf(pass, callee); fd != nil && !hasUnboundedLoop(fd.Body) {
			return
		}
		report(pass, idx, g,
			"go %s has no provable shutdown edge: no stop/done channel, context, channel range or Cond.Wait is reachable from it — a drain leaves this goroutine stranded",
			callee.Name())
	}
}

// declOf finds the FuncDecl for a same-package function, or nil.
func declOf(pass *analysis.Pass, fn *types.Func) *ast.FuncDecl {
	if fn.Pkg() != pass.Pkg {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && pass.TypesInfo.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

// shutdownConstruct scans a body for a direct shutdown edge and describes
// the first one found.
func shutdownConstruct(pass *analysis.Pass, body *ast.BlockStmt) (string, bool) {
	var found string
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && stopLikeChan(pass, n.X) {
				found = "receive on " + exprText(n.X)
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = "range over channel " + exprText(n.X)
				}
			}
		case *ast.CallExpr:
			if fn, ok := typeutil.Callee(pass.TypesInfo, n).(*types.Func); ok {
				if fn.Name() == "Wait" && isStdPkg(fn.Pkg(), "sync") && isMethodOn(fn, "Cond") {
					found = "sync.Cond.Wait loop"
				}
			}
		}
		return true
	})
	return found, found != ""
}

// stopLikeChan reports whether the channel expression names a shutdown
// signal: an identifier/field whose name suggests stopping, or ctx.Done().
func stopLikeChan(pass *analysis.Pass, x ast.Expr) bool {
	if t := pass.TypesInfo.TypeOf(x); t != nil {
		if _, isChan := t.Underlying().(*types.Chan); !isChan {
			return false
		}
	}
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return stopLikeName(x.Name)
	case *ast.SelectorExpr:
		return stopLikeName(x.Sel.Name)
	case *ast.CallExpr:
		if fn, ok := typeutil.Callee(pass.TypesInfo, x).(*types.Func); ok {
			return stopLikeName(fn.Name())
		}
	}
	return false
}

var stopWords = []string{"stop", "done", "quit", "exit", "shutdown", "close", "drain"}

func stopLikeName(name string) bool {
	lower := strings.ToLower(name)
	for _, w := range stopWords {
		if strings.Contains(lower, w) {
			return true
		}
	}
	return false
}

// hasUnboundedLoop reports whether the body contains a `for {}`-style loop
// with no condition (the only loop shape that cannot terminate on its own).
func hasUnboundedLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok && f.Cond == nil {
			found = true
		}
		return !found
	})
	return found
}

// exprText renders a short source-ish form of a channel expression for
// diagnostics.
func exprText(x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprText(x.Fun) + "()"
	}
	return "chan"
}
