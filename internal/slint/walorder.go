package slint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/cfg"
	"golang.org/x/tools/go/types/typeutil"
)

// WalOrder proves the write-ahead ordering protocol on Tx mutation paths.
//
// The engine applies a mutation in memory first (heap insert/update/delete,
// index tree insert/remove, or the tableRuntime method that bundles them),
// then appends the WAL record, then registers the undo entry carrying that
// record's LSN. The protocol obligation is on the
// paths out of the function: once an in-memory mutation has been applied,
// every non-panic return must have either
//
//   - registered the undo (tx.pushUndo), so abort and recovery can roll the
//     mutation back, or
//   - rolled the mutation back inline — tx.applyUndo, which applies the
//     mutation's own compensation record on logAppend failure, or the
//     inverse in-memory operation (heap Delete compensating an Insert, tree
//     remove compensating an insert, ...).
//
// A return with neither is the PR 4 bug class: a wedged log left a phantom
// row visible with no registered undo. The one legitimate bare return is the
// mutation's own failure path — if rt.hf.Insert itself errored, nothing was
// applied — which the analyzer recognizes by the return being guarded by a
// condition on the mutation's own results.
//
// Additionally, within any function that both mutates and registers undos,
// the log append must dominate pushUndo: the undo entry's LSN field is
// tx.lastLSN, which only the append sets, so an undo registered before its
// record is appended carries a stale LSN into recovery.
//
// The proof is a control-flow-graph walk per function (panic/Fatal paths
// excluded, as in proftimer); it is intra-procedural by design — Insert,
// Update and Delete each carry the whole protocol locally, which is itself
// an invariant worth keeping.
var WalOrder = &analysis.Analyzer{
	Name: "walorder",
	Doc:  "prove WAL append and undo registration cover every in-memory mutation path in Tx methods",
	Run:  runWalOrder,
}

// mutKind classifies an in-memory mutation call by its inverse.
type mutKind int

const (
	mutHeapInsert mutKind = iota
	mutHeapUpdate
	mutHeapDelete
	mutTreeInsert
	mutTreeRemove
)

// inverseOf maps each mutation kind to the kind that compensates it.
var inverseOf = map[mutKind]mutKind{
	mutHeapInsert: mutHeapDelete,
	mutHeapDelete: mutHeapInsert,
	mutHeapUpdate: mutHeapUpdate, // writing the before-image back is another update
	mutTreeInsert: mutTreeRemove,
	mutTreeRemove: mutTreeInsert,
}

var mutKindName = map[mutKind]string{
	mutHeapInsert: "heap insert",
	mutHeapUpdate: "heap update",
	mutHeapDelete: "heap delete",
	mutTreeInsert: "index insert",
	mutTreeRemove: "index remove",
}

// walMutation is one in-memory mutation site with its guard context.
type walMutation struct {
	call    *ast.CallExpr
	kind    mutKind
	guards  map[types.Object]bool // variables assigned from the mutation's statement
	guardIf *ast.IfStmt           // if the call sits in an if's Init/Cond directly
}

// walCalls is everything walorder cares about in one function body,
// collected without descending into nested function literals (a mutation
// inside one runs when the literal is called, not on this path).
type walCalls struct {
	mutations []*walMutation
	logs      []*ast.CallExpr // tx.logAppend / tx.appendTimed
	pushes    []*ast.CallExpr // tx.pushUndo
	undos     []*ast.CallExpr // tx.applyUndo: the inline rollback
}

func runWalOrder(pass *analysis.Pass) (interface{}, error) {
	idx := buildDirectiveIndex(pass)
	for _, file := range pass.Files {
		parents := buildParentMap(file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isTxMethod(pass, fd) {
				continue
			}
			checkWalOrder(pass, idx, parents, fd)
		}
	}
	return nil, nil
}

// isTxMethod reports whether fd is a method on a type named Tx — the
// transaction handles are where the write-ahead protocol lives.
func isTxMethod(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	return typeBase(derefType(t)) == "Tx"
}

func checkWalOrder(pass *analysis.Pass, idx *directiveIndex, parents map[ast.Node]ast.Node, fd *ast.FuncDecl) {
	calls := collectWalCalls(pass, parents, fd.Body)
	if len(calls.mutations) == 0 {
		return
	}
	g := cfg.New(fd.Body, mayReturn)
	// Pass 1: a mutation that is the inverse of an earlier one on some path
	// is that mutation's inline rollback — it discharges an obligation
	// rather than creating one (the `_ = rt.hf.Delete(rid)` on Insert's
	// error paths). Mark those so pass 2 doesn't demand an undo for them.
	comp := make(map[*ast.CallExpr]bool)
	for _, m := range calls.mutations {
		walkMutationPaths(pass, g, calls, m, comp, nil, nil)
	}
	// Pass 2: every remaining mutation must settle on all paths.
	for _, m := range calls.mutations {
		if comp[m.call] {
			continue
		}
		walkMutationPaths(pass, g, calls, m, nil,
			func(ret *ast.ReturnStmt) {
				if ret.Return >= fd.Body.Rbrace {
					// cfg synthesizes an implicit return at the closing
					// brace when control falls off the end of the body.
					report(pass, idx, m.call,
						"%s in %s reaches the end of the function with no undo registered and no inline rollback",
						mutKindName[m.kind], fd.Name.Name)
					return
				}
				if !guardedReturn(pass, parents, ret, m) {
					report(pass, idx, ret,
						"return in %s with the %s at line %d still applied: no undo was registered (pushUndo) and no inline rollback ran — a wedged log here leaves the mutation visible with nothing to roll it back",
						fd.Name.Name, mutKindName[m.kind], pass.Fset.Position(m.call.Pos()).Line)
				}
			},
			func() {
				report(pass, idx, m.call,
					"%s in %s reaches the end of the function with no undo registered and no inline rollback",
					mutKindName[m.kind], fd.Name.Name)
			})
	}
	if len(calls.pushes) > 0 && len(calls.logs) > 0 {
		checkLogDominatesPush(pass, idx, g, calls)
	} else if len(calls.pushes) > 0 {
		// pushUndo with no log append anywhere in the function: every
		// registration carries a stale LSN.
		for _, p := range calls.pushes {
			report(pass, idx, p,
				"pushUndo in %s with no log append in the function: the undo entry's LSN is whatever the previous record set (WAL rule: append the record, then register its undo)",
				fd.Name.Name)
		}
	}
}

// collectWalCalls gathers the protocol-relevant calls in body, skipping
// nested function literals.
func collectWalCalls(pass *analysis.Pass, parents map[ast.Node]ast.Node, body *ast.BlockStmt) *walCalls {
	calls := &walCalls{}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if kind, ok := mutationKind(pass, call); ok {
				calls.mutations = append(calls.mutations, newWalMutation(pass, parents, call, kind))
				return true
			}
			if fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func); ok && isMethodOn(fn, "Tx") {
				switch fn.Name() {
				case "logAppend", "appendTimed":
					calls.logs = append(calls.logs, call)
				case "pushUndo":
					calls.pushes = append(calls.pushes, call)
				case "applyUndo":
					calls.undos = append(calls.undos, call)
				}
			}
			return true
		})
	}
	walk(body)
	return calls
}

// mutationKind classifies call as an in-memory mutation: a heap-package
// Insert/Update/Delete method, an indexTree insert/remove, or a tableRuntime
// method that changes a row's heap slot and index entries together (insert,
// update and delete count as the heap operation, addKeys and dropKeys as the
// index one).
func mutationKind(pass *analysis.Pass, call *ast.CallExpr) (mutKind, bool) {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok {
		return 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0, false
	}
	if fromPkg(fn.Pkg(), "heap") {
		switch fn.Name() {
		case "Insert":
			return mutHeapInsert, true
		case "Update":
			return mutHeapUpdate, true
		case "Delete":
			return mutHeapDelete, true
		}
		return 0, false
	}
	switch typeBase(derefType(sig.Recv().Type())) {
	case "indexTree":
		switch fn.Name() {
		case "insert":
			return mutTreeInsert, true
		case "remove":
			return mutTreeRemove, true
		}
	case "tableRuntime":
		switch fn.Name() {
		case "insert":
			return mutHeapInsert, true
		case "update":
			return mutHeapUpdate, true
		case "delete":
			return mutHeapDelete, true
		case "addKeys":
			return mutTreeInsert, true
		case "dropKeys":
			return mutTreeRemove, true
		}
	}
	return 0, false
}

// isMethodOn reports whether fn is a method whose receiver's base type is
// named recvName.
func isMethodOn(fn *types.Func, recvName string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return typeBase(derefType(sig.Recv().Type())) == recvName
}

// newWalMutation records the mutation's guard context: which variables its
// enclosing statement assigns (rid, err := rt.hf.Insert(...)), or the if
// statement whose Init/Cond contains the call (if !tree.insert(...) {...}).
// Returns guarded by those are the "mutation itself failed" path.
func newWalMutation(pass *analysis.Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr, kind mutKind) *walMutation {
	m := &walMutation{call: call, kind: kind, guards: make(map[types.Object]bool)}
	for cur := parents[ast.Node(call)]; cur != nil; cur = parents[cur] {
		switch s := cur.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						m.guards[obj] = true
					}
				}
			}
		case *ast.IfStmt:
			if within(call, s.Cond) || (s.Init != nil && within(call, s.Init)) {
				m.guardIf = s
			}
			return m
		case *ast.BlockStmt, *ast.FuncDecl, *ast.FuncLit:
			return m
		}
	}
	return m
}

// within reports whether inner's source range is inside outer's.
func within(inner, outer ast.Node) bool {
	return outer != nil && inner.Pos() >= outer.Pos() && inner.End() <= outer.End()
}

// walkMutationPaths walks the CFG forward from the mutation. A path is
// settled by a pushUndo, an applyUndo, or the inverse in-memory mutation.
// When mark is non-nil, inverse mutations that settle a path are recorded as
// compensations. When onReturn/onEnd are non-nil, they are invoked for
// returns (and function-end fallthroughs) reached on unsettled paths.
func walkMutationPaths(pass *analysis.Pass, g *cfg.CFG, calls *walCalls, m *walMutation, mark map[*ast.CallExpr]bool, onReturn func(*ast.ReturnStmt), onEnd func()) {
	startBlock, startIdx := findNode(g, m.call)
	if startBlock == nil {
		return // dead code; nothing to prove
	}

	// settles reports how CFG node n discharges the obligation (after the
	// mutation itself, for the node holding it): byPush for pushUndo or
	// applyUndo, byInverse for a compensating inverse mutation.
	settles := func(n ast.Node, after ast.Node) (byPush, byInverse bool) {
		minPos := n.Pos()
		if after != nil {
			minPos = after.End()
		}
		for _, p := range calls.pushes {
			if within(p, n) && p.Pos() >= minPos {
				return true, false
			}
		}
		for _, c := range calls.undos {
			if within(c, n) && c.Pos() >= minPos {
				return true, false
			}
		}
		for _, other := range calls.mutations {
			if other.kind == inverseOf[m.kind] && other.call != m.call && within(other.call, n) && other.call.Pos() >= minPos {
				if mark != nil {
					mark[other.call] = true
				}
				byInverse = true
			}
		}
		return false, byInverse
	}

	seen := make(map[*cfg.Block]bool)
	type item struct {
		b *cfg.Block
		i int
	}
	work := []item{{startBlock, startIdx}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		done := false
		for j := it.i; j < len(it.b.Nodes); j++ {
			n := it.b.Nodes[j]
			var after ast.Node
			if it.b == startBlock && j == startIdx {
				after = m.call
			}
			byPush, byInverse := settles(n, after)
			if byPush || (byInverse && mark == nil) {
				done = true
				break
			}
			// In marking mode an inverse settler doesn't stop the walk: a
			// rollback branch may compensate several mutations in sequence
			// (pk restore, then each secondary index in a loop) and every
			// one of them must be marked.
			if ret := returnIn(n); ret != nil {
				if onReturn != nil {
					onReturn(ret)
				}
				done = true
				break
			}
		}
		if done {
			continue
		}
		if len(it.b.Succs) == 0 {
			// A block with no successors is either the fall-off-the-end exit
			// or the tail of a panic/Fatal path (which mayReturn pruned).
			// Only the former ends the function with the mutation live.
			if onEnd != nil && !endsInNoReturnCall(it.b) && it.b.Live {
				onEnd()
			}
			continue
		}
		for _, succ := range it.b.Succs {
			if !seen[succ] {
				seen[succ] = true
				work = append(work, item{succ, 0})
			}
		}
	}
}

// findNode locates the CFG block and node index whose node contains target.
func findNode(g *cfg.CFG, target ast.Node) (*cfg.Block, int) {
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if within(target, n) {
				return b, i
			}
		}
	}
	return nil, -1
}

// returnIn returns the ReturnStmt if n is one.
func returnIn(n ast.Node) *ast.ReturnStmt {
	ret, _ := n.(*ast.ReturnStmt)
	return ret
}

// endsInNoReturnCall reports whether the block's last node is a call the CFG
// builder treats as not returning (panic, Fatal, ...).
func endsInNoReturnCall(b *cfg.Block) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	var last *ast.CallExpr
	ast.Inspect(b.Nodes[len(b.Nodes)-1], func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			last = c
		}
		return true
	})
	return last != nil && !mayReturn(last)
}

// guardedReturn reports whether ret sits under an if whose condition tests
// the mutation's own results — the "mutation itself failed, nothing to roll
// back" path.
func guardedReturn(pass *analysis.Pass, parents map[ast.Node]ast.Node, ret *ast.ReturnStmt, m *walMutation) bool {
	for cur := parents[ast.Node(ret)]; cur != nil; cur = parents[cur] {
		is, ok := cur.(*ast.IfStmt)
		if !ok {
			if _, isFn := cur.(*ast.FuncDecl); isFn {
				return false
			}
			if _, isFn := cur.(*ast.FuncLit); isFn {
				return false
			}
			continue
		}
		if is == m.guardIf {
			return true
		}
		found := false
		ast.Inspect(is.Cond, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && m.guards[pass.TypesInfo.ObjectOf(id)] {
				found = true
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// checkLogDominatesPush reports pushUndo calls reachable from function entry
// without passing a log append: the undo entry's LSN field reads tx.lastLSN,
// which only the append sets.
func checkLogDominatesPush(pass *analysis.Pass, idx *directiveIndex, g *cfg.CFG, calls *walCalls) {
	if len(g.Blocks) == 0 {
		return
	}
	reported := make(map[*ast.CallExpr]bool)
	seen := make(map[*cfg.Block]bool)
	work := []*cfg.Block{g.Blocks[0]}
	seen[g.Blocks[0]] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		blocked := false
		for _, n := range b.Nodes {
			// First log append in the node bounds how far the scan reaches.
			var logPos ast.Node
			for _, l := range calls.logs {
				if within(l, n) && (logPos == nil || l.Pos() < logPos.Pos()) {
					logPos = l
				}
			}
			for _, p := range calls.pushes {
				if within(p, n) && (logPos == nil || p.Pos() < logPos.Pos()) && !reported[p] {
					reported[p] = true
					report(pass, idx, p,
						"pushUndo is reachable without a prior log append on this path: the undo entry's LSN predates its record (WAL rule: append the record, then register its undo)")
				}
			}
			if logPos != nil {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		for _, succ := range b.Succs {
			if !seen[succ] {
				seen[succ] = true
				work = append(work, succ)
			}
		}
	}
}
