// vet.Facts — proven program facts exported for consumers outside the
// diagnostics pipeline. The fact family is with-loop compilation
// (withplan.go): a genarray/fold body proven to be an effect-free
// index expression, which the VM runs on the flat with-loop engine
// instead of a per-element closure.
package vet

import (
	"repro/internal/ast"
	"repro/internal/sem"
)

// Facts is the proven-facts side table computed once per checked
// program and cached content-addressed by the driver.
type Facts struct {
	withs map[*ast.WithLoop]*WithPlan
}

// ComputeFacts proves with-loop compilation facts over a checked
// program. Safe on partially-checked programs (missing type info
// simply proves nothing).
func ComputeFacts(prog *ast.Program, info *sem.Info) *Facts {
	f := &Facts{withs: map[*ast.WithLoop]*WithPlan{}}
	if prog == nil || info == nil {
		return f
	}
	ff := &factFinder{info: info, facts: f}
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			ff.stmt(d.Body)
		case *ast.GlobalVarDecl:
			ff.expr(d.Init)
		}
	}
	return f
}

type factFinder struct {
	info  *sem.Info
	facts *Facts
}

func (ff *factFinder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.Stmts {
			ff.stmt(st)
		}
	case *ast.DeclStmt:
		ff.expr(s.Init)
	case *ast.AssignStmt:
		for _, l := range s.LHS {
			ff.expr(l)
		}
		ff.expr(s.RHS)
	case *ast.IfStmt:
		ff.expr(s.Cond)
		ff.stmt(s.Then)
		ff.stmt(s.Else)
	case *ast.WhileStmt:
		ff.expr(s.Cond)
		ff.stmt(s.Body)
	case *ast.ForStmt:
		ff.stmt(s.Init)
		ff.expr(s.Cond)
		ff.stmt(s.Body)
		ff.stmt(s.Post)
	case *ast.ReturnStmt:
		ff.expr(s.Value)
	case *ast.ExprStmt:
		ff.expr(s.X)
	case *ast.SpawnStmt:
		ff.expr(s.Call)
	}
}

// expr walks x looking for with-loops to prove.
func (ff *factFinder) expr(x ast.Expr) {
	switch x := x.(type) {
	case *ast.UnaryExpr:
		ff.expr(x.X)
	case *ast.BinaryExpr:
		ff.expr(x.L)
		ff.expr(x.R)
	case *ast.CastExpr:
		ff.expr(x.X)
	case *ast.CallExpr:
		for _, a := range x.Args {
			ff.expr(a)
		}
	case *ast.IndexExpr:
		ff.expr(x.X)
		for _, a := range x.Args {
			switch a := a.(type) {
			case *ast.IdxScalar:
				ff.expr(a.X)
			case *ast.IdxRange:
				ff.expr(a.Lo)
				ff.expr(a.Hi)
			}
		}
	case *ast.RangeExpr:
		ff.expr(x.Lo)
		ff.expr(x.Hi)
	case *ast.TupleExpr:
		for _, el := range x.Elems {
			ff.expr(el)
		}
	case *ast.WithLoop:
		for _, b := range x.Lower {
			ff.expr(b)
		}
		for _, b := range x.Upper {
			ff.expr(b)
		}
		switch op := x.Op.(type) {
		case *ast.GenArrayOp:
			for _, sx := range op.Shape {
				ff.expr(sx)
			}
			ff.expr(op.Body)
		case *ast.FoldOp:
			ff.expr(op.Init)
			ff.expr(op.Body)
		}
		// Bodies and bounds keep their own facts (a nested with-loop
		// inside a non-flat body can still get its own plan).
		if wp := proveWith(ff.info, x); wp != nil {
			ff.facts.withs[x] = wp
		}
	case *ast.MatrixMap:
		ff.expr(x.Arg)
		for _, d := range x.Dims {
			ff.expr(d)
		}
	case *ast.InitExpr:
		for _, d := range x.Dims {
			ff.expr(d)
		}
	}
}
