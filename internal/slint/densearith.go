package slint

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// DenseArith flags arithmetic performed directly on wal.LSN values.
//
// Since the byte-offset refactor (PR 5), an LSN is an offset into the
// virtual log address space: ordered, comparable, but NOT dense. "lsn+1" is
// never the next record — record boundaries are only reachable through the
// encoded sizes — so any +, -, *, /, %, bit op, +=, ++ on an LSN outside
// wal's own helper methods is treated as a latent dense-LSN bug. Legitimate
// offset math belongs in the LSN helper methods (Advance, Next, Distance) or
// in plain int64 byte space before converting.
//
// Allowlist: methods declared on the LSN type itself (they ARE the byte
// math), and expressions suppressed with //slint:ignore densearith <reason>.
var DenseArith = &analysis.Analyzer{
	Name:     "densearith",
	Doc:      "flag arithmetic on wal.LSN outside its helper methods (byte-offset LSNs are ordered, not dense)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runDenseArith,
}

func runDenseArith(pass *analysis.Pass) (interface{}, error) {
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	idx := buildDirectiveIndex(pass)

	isLSN := func(e ast.Expr) bool {
		return isLSNType(pass.TypesInfo.TypeOf(e))
	}

	nodeFilter := []ast.Node{
		(*ast.BinaryExpr)(nil),
		(*ast.AssignStmt)(nil),
		(*ast.IncDecStmt)(nil),
	}
	insp.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		if fd := enclosingFuncDecl(stack); fd != nil && isLSNMethod(pass, fd) {
			return true // the helper methods are the allowlisted byte math
		}
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if arithOp(n.Op) && (isLSN(n.X) || isLSN(n.Y)) {
				report(pass, idx, n, "arithmetic on wal.LSN: byte-offset LSNs are ordered, not dense — use an LSN helper (Advance/Next/Distance) or do the math in int64 byte space")
			}
		case *ast.AssignStmt:
			if arithAssignOp(n.Tok) && len(n.Lhs) == 1 && (isLSN(n.Lhs[0]) || isLSN(n.Rhs[0])) {
				report(pass, idx, n, "compound assignment on wal.LSN: byte-offset LSNs are ordered, not dense — use an LSN helper (Advance/Next/Distance) or do the math in int64 byte space")
			}
		case *ast.IncDecStmt:
			if isLSN(n.X) {
				report(pass, idx, n, "%s on wal.LSN is a dense-LSN bug: byte-offset LSNs have no successor — use an LSN helper or int64 byte math", n.Tok)
			}
		}
		return true
	})
	return nil, nil
}

// isLSNType reports whether t is the named type LSN from the wal package.
func isLSNType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "LSN" && fromPkg(obj.Pkg(), "wal")
}

// isLSNMethod reports whether fd is a method with an LSN receiver.
func isLSNMethod(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return isLSNType(t)
}

// arithOp reports whether op is an arithmetic or bitwise binary operator.
// Comparisons and logical operators are fine on LSNs (they are ordered).
func arithOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.AND, token.OR, token.XOR, token.SHL, token.SHR, token.AND_NOT:
		return true
	}
	return false
}

// arithAssignOp reports whether tok is a compound arithmetic assignment.
func arithAssignOp(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN,
		token.REM_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN,
		token.SHL_ASSIGN, token.SHR_ASSIGN, token.AND_NOT_ASSIGN:
		return true
	}
	return false
}
