// The attribute-grammar specification of extended CMINUS semantics.
// The host spec declares the analysis attributes — env (inherited
// scope), envOut (statement scope flow), typ (expression types), errs
// (collected diagnostics), retType/inLoop/inIndex (context flags) —
// and equations for every host production. The matrix and transform
// specs contribute equations for their own productions (and, for the
// transform extension, its own loopIds/idsOut attributes on the
// matrix extension's WithSuffix nonterminal), mirroring exactly how
// the paper's Silver specifications compose. The MWDA in internal/attr
// validates each spec; see sem_test.go.
package sem

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/attr"
	"repro/internal/types"
)

// Nonterminals of the semantic AG.
const (
	ntProgram    = "Program"
	ntDecl       = "Decl"
	ntStmt       = "Stmt"
	ntExpr       = "Expr"
	ntExprList   = "ExprList"
	ntIdxArgList = "IdxArgList"
	ntIdxArg     = "IdxArg"
	ntWithOp     = "WithOp"
	ntWithSuffix = "WithSuffix"
	ntClause     = "Clause"
)

// globalEnvVal is the value of the program's globalEnv attribute.
type globalEnvVal struct {
	scope *Scope
	errs  errlist
}

// idxInfo is the value of the argInfo attribute on index arguments.
type idxKind int

const (
	idxScalarK idxKind = iota
	idxRangeK
	idxAllK
	idxMaskK
	idxBadK
)

type idxInfo struct{ kind idxKind }

// builtinFn type-checks one builtin call.
type builtinFn func(args []*types.Type, call *ast.CallExpr) (*types.Type, errlist)

// hostBuiltins returns the host-language builtin table (§III's
// dimSize, readMatrix, writeMatrix plus simple printing).
func hostBuiltins() map[string]builtinFn {
	return map[string]builtinFn{
		"dimSize": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 2 || !args[0].IsMatrix() || args[1].Kind != types.Int {
				return types.InvalidT, errlist{errf(c, "dimSize expects (Matrix, int), got %s", typesStr(args))}
			}
			return types.IntT, nil
		},
		"readMatrix": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 1 || args[0].Kind != types.String {
				return types.InvalidT, errlist{errf(c, "readMatrix expects a file name string")}
			}
			return types.AnyMatT, nil
		},
		"writeMatrix": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 2 || args[0].Kind != types.String || !args[1].IsMatrix() {
				return types.InvalidT, errlist{errf(c, "writeMatrix expects (string, Matrix), got %s", typesStr(args))}
			}
			return types.VoidT, nil
		},
		"print": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 1 || !(args[0].IsScalar() || args[0].IsMatrix()) {
				return types.InvalidT, errlist{errf(c, "print expects one scalar or matrix argument")}
			}
			return types.VoidT, nil
		},
	}
}

// rcBuiltins returns the reference-counting extension's library
// bindings (the extension's semantics beyond its type syntax).
func rcBuiltins() map[string]builtinFn {
	return map[string]builtinFn{
		"rcnew": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 1 || args[0].Kind == types.Void || args[0].Kind == types.Invalid {
				return types.InvalidT, errlist{errf(c, "rcnew expects one value argument")}
			}
			return types.RcPtrOf(args[0]), nil
		},
		"rcget": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 1 || args[0].Kind != types.RcPtr {
				return types.InvalidT, errlist{errf(c, "rcget expects a refcounted pointer, got %s", typesStr(args))}
			}
			return args[0].Elem, nil
		},
		"rcset": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 2 || args[0].Kind != types.RcPtr {
				return types.InvalidT, errlist{errf(c, "rcset expects (refcounted pointer, value)")}
			}
			if !types.AssignableTo(args[1], args[0].Elem) {
				return types.InvalidT, errlist{errf(c, "rcset value %s is not assignable to %s", args[1], args[0].Elem)}
			}
			return types.VoidT, nil
		},
		"rcrelease": func(args []*types.Type, c *ast.CallExpr) (*types.Type, errlist) {
			if len(args) != 1 || args[0].Kind != types.RcPtr {
				return types.InvalidT, errlist{errf(c, "rcrelease expects a refcounted pointer, got %s", typesStr(args))}
			}
			return types.VoidT, nil
		},
	}
}

func typesStr(ts []*types.Type) string {
	s := "("
	for i, t := range ts {
		if i > 0 {
			s += ", "
		}
		s += t.String()
	}
	return s + ")"
}

// --- helper accessors used inside equations ---

func env(t *attr.Tree) *Scope           { return t.Inh("env").(*Scope) }
func typOf(t *attr.Tree) *types.Type    { return t.Syn("typ").(*types.Type) }
func typsOf(t *attr.Tree) []*types.Type { return t.Syn("typs").([]*types.Type) }

func resolveType(te ast.TypeExpr, at ast.Node) (*types.Type, errlist) {
	ty, err := types.FromAST(te)
	if err != nil {
		return types.InvalidT, errlist{errf(at, "%v", err)}
	}
	return ty, nil
}

// HostAG builds the host-language semantic specification. The info
// receives inferred types and signatures as attributes are evaluated;
// builtins is the library table (host builtins plus any extension
// contributions).
func HostAG(info *Info, builtins map[string]builtinFn) *attr.AGSpec {
	s := &attr.AGSpec{Name: ""}

	for _, nt := range []string{ntProgram, ntDecl, ntStmt, ntExpr, ntExprList, ntIdxArgList, ntIdxArg} {
		s.NTs = append(s.NTs, attr.NTDecl{Name: nt})
	}
	s.Attrs = []attr.AttrDecl{
		{Name: "env", Kind: attr.Inherited},
		{Name: "envOut", Kind: attr.Synthesized},
		{Name: "typ", Kind: attr.Synthesized},
		{Name: "typs", Kind: attr.Synthesized},
		{Name: "errs", Kind: attr.Synthesized},
		{Name: "ownErrs", Kind: attr.Synthesized},
		{Name: "retType", Kind: attr.Inherited},
		{Name: "inLoop", Kind: attr.Inherited},
		{Name: "inIndex", Kind: attr.Inherited},
		{Name: "globalEnv", Kind: attr.Synthesized},
		{Name: "argInfo", Kind: attr.Synthesized},
	}
	occ := func(a string, nts ...string) {
		for _, nt := range nts {
			s.Occurs = append(s.Occurs, attr.Occurs{Attr: a, NT: nt})
		}
	}
	occ("env", ntDecl, ntStmt, ntExpr, ntExprList, ntIdxArgList, ntIdxArg)
	occ("envOut", ntStmt)
	occ("typ", ntExpr)
	occ("typs", ntExprList)
	occ("errs", ntProgram, ntDecl, ntStmt, ntExpr, ntExprList, ntIdxArgList, ntIdxArg)
	occ("ownErrs", ntProgram, ntDecl, ntStmt, ntExpr, ntExprList, ntIdxArgList, ntIdxArg)
	occ("retType", ntStmt)
	occ("inLoop", ntStmt)
	occ("inIndex", ntExpr, ntExprList)
	occ("globalEnv", ntProgram)
	occ("argInfo", ntIdxArg)

	p := func(name, lhs string, variadic bool, kids ...string) {
		s.Prods = append(s.Prods, attr.ProdDecl{Name: name, LHS: lhs, ChildNTs: kids, Variadic: variadic})
	}
	p("program", ntProgram, true, ntDecl)
	p("funcDecl", ntDecl, false, ntStmt)
	p("globalVar", ntDecl, false)
	p("globalVarInit", ntDecl, false, ntExpr)
	p("block", ntStmt, true, ntStmt)
	p("declStmt", ntStmt, false)
	p("declStmtInit", ntStmt, false, ntExpr)
	p("assign", ntStmt, false, ntExprList, ntExpr)
	p("ifStmt", ntStmt, false, ntExpr, ntStmt)
	p("ifElseStmt", ntStmt, false, ntExpr, ntStmt, ntStmt)
	p("whileStmt", ntStmt, false, ntExpr, ntStmt)
	p("forStmt", ntStmt, false, ntStmt, ntExpr, ntStmt, ntStmt)
	p("emptyStmt", ntStmt, false)
	p("returnStmt", ntStmt, false, ntExpr)
	p("returnVoid", ntStmt, false)
	p("exprStmt", ntStmt, false, ntExpr)
	p("breakStmt", ntStmt, false)
	p("continueStmt", ntStmt, false)
	p("intLit", ntExpr, false)
	p("floatLit", ntExpr, false)
	p("boolLit", ntExpr, false)
	p("strLit", ntExpr, false)
	p("ident", ntExpr, false)
	p("binary", ntExpr, false, ntExpr, ntExpr)
	p("unary", ntExpr, false, ntExpr)
	p("call", ntExpr, false, ntExprList)
	p("cast", ntExpr, false, ntExpr)
	p("index", ntExpr, false, ntExpr, ntIdxArgList)
	p("endExpr", ntExpr, false)
	p("rangeExpr", ntExpr, false, ntExpr, ntExpr)
	p("tupleExpr", ntExpr, false, ntExprList)
	p("exprList", ntExprList, true, ntExpr)
	p("idxArgList", ntIdxArgList, true, ntIdxArg)
	p("idxScalar", ntIdxArg, false, ntExpr)
	p("idxRange", ntIdxArg, false, ntExpr, ntExpr)
	p("idxAll", ntIdxArg, false)

	syn := func(prod, attrName string, f func(t *attr.Tree) any) {
		s.SynEqs = append(s.SynEqs, attr.SynEq{Prod: prod, Attr: attrName, F: f})
	}
	inh := func(prod string, child int, attrName string, f func(p *attr.Tree, c int) any) {
		s.InhEqs = append(s.InhEqs, attr.InhEq{Prod: prod, Child: child, Attr: attrName, F: f})
	}
	inhCopy := func(prod string, child int, attrName string) {
		inh(prod, child, attrName, func(p *attr.Tree, c int) any { return p.Inh(attrName) })
	}
	inhConst := func(prod string, child int, attrName string, v any) {
		inh(prod, child, attrName, func(p *attr.Tree, c int) any { return v })
	}
	// typ equation wrapper: records the inferred type in info.Types.
	typEq := func(prod string, f func(t *attr.Tree) *types.Type) {
		syn(prod, "typ", func(t *attr.Tree) any {
			ty := f(t)
			if e, ok := t.Value.(ast.Expr); ok {
				info.Types[e] = ty
			}
			return ty
		})
	}
	noErrs := func(prods ...string) {
		for _, pr := range prods {
			syn(pr, "ownErrs", func(t *attr.Tree) any { return errlist(nil) })
		}
	}

	// --- program ---
	syn("program", "globalEnv", func(t *attr.Tree) any {
		var errs errlist
		sc := (*Scope)(nil).Push()
		seen := map[string]bool{}
		for i := 0; i < t.NumChildren(); i++ {
			switch d := t.Child(i).Value.(type) {
			case *ast.FuncDecl:
				ret, e := resolveType(d.Ret, d)
				errs = append(errs, e...)
				params := make([]*types.Type, len(d.Params))
				for j, pa := range d.Params {
					pt, e := resolveType(pa.Type, pa)
					errs = append(errs, e...)
					params[j] = pt
				}
				if seen[d.Name] {
					errs = append(errs, errf(d, "redeclaration of %q", d.Name))
					continue
				}
				seen[d.Name] = true
				ft := types.FuncOf(ret, params...)
				sc = sc.Bind(d.Name, ft, d)
				info.Funcs[d.Name] = &FuncSig{Name: d.Name, Type: ft, Decl: d}
			case *ast.GlobalVarDecl:
				ty, e := resolveType(d.Type, d)
				errs = append(errs, e...)
				if seen[d.Name] {
					errs = append(errs, errf(d, "redeclaration of %q", d.Name))
					continue
				}
				if ty.Kind == types.Void {
					errs = append(errs, errf(d, "variable %q cannot have void type", d.Name))
					ty = types.InvalidT
				}
				seen[d.Name] = true
				sc = sc.Bind(d.Name, ty, d)
				info.GlobalTypes[d.Name] = ty
			}
		}
		return globalEnvVal{scope: sc, errs: errs}
	})
	syn("program", "ownErrs", func(t *attr.Tree) any {
		return t.Syn("globalEnv").(globalEnvVal).errs
	})
	inh("program", -1, "env", func(p *attr.Tree, c int) any {
		return p.Syn("globalEnv").(globalEnvVal).scope
	})

	// --- declarations ---
	syn("funcDecl", "ownErrs", func(t *attr.Tree) any { return errlist(nil) })
	inh("funcDecl", 0, "env", func(p *attr.Tree, c int) any {
		d := p.Value.(*ast.FuncDecl)
		sc := env(p).Push()
		seen := map[string]bool{}
		for _, pa := range d.Params {
			pt, _ := resolveType(pa.Type, pa)
			if seen[pa.Name] {
				continue // duplicate params reported below via body? report here is awkward; keep first
			}
			seen[pa.Name] = true
			sc = sc.Bind(pa.Name, pt, pa)
		}
		return sc
	})
	inh("funcDecl", 0, "retType", func(p *attr.Tree, c int) any {
		d := p.Value.(*ast.FuncDecl)
		ret, _ := resolveType(d.Ret, d)
		return ret
	})
	inhConst("funcDecl", 0, "inLoop", false)

	noErrs("globalVar")
	syn("globalVarInit", "ownErrs", func(t *attr.Tree) any {
		d := t.Value.(*ast.GlobalVarDecl)
		ty, _ := resolveType(d.Type, d)
		it := typOf(t.Child(0))
		if !types.AssignableTo(it, ty) {
			return errlist{errf(d, "cannot initialize %q of type %s with %s", d.Name, ty, it)}
		}
		return errlist(nil)
	})
	inhCopy("globalVarInit", 0, "env")
	inhConst("globalVarInit", 0, "inIndex", false)

	// --- statements ---
	noErrs("block", "emptyStmt", "exprStmt")
	syn("block", "envOut", func(t *attr.Tree) any { return t.Inh("env") })
	inh("block", -1, "env", func(p *attr.Tree, c int) any {
		if c == 0 {
			return env(p).Push()
		}
		return p.Child(c - 1).Syn("envOut")
	})
	inhCopy("block", -1, "retType")
	inhCopy("block", -1, "inLoop")

	declCheck := func(t *attr.Tree) (string, *types.Type, errlist) {
		d := t.Value.(*ast.DeclStmt)
		ty, errs := resolveType(d.Type, d)
		if ty.Kind == types.Void {
			errs = append(errs, errf(d, "variable %q cannot have void type", d.Name))
			ty = types.InvalidT
		}
		if env(t).DeclaredInBlock(d.Name) {
			errs = append(errs, errf(d, "%q is already declared in this block", d.Name))
		}
		return d.Name, ty, errs
	}
	syn("declStmt", "ownErrs", func(t *attr.Tree) any {
		_, _, errs := declCheck(t)
		return errs
	})
	syn("declStmt", "envOut", func(t *attr.Tree) any {
		name, ty, _ := declCheck(t)
		return env(t).Bind(name, ty, t.Value.(ast.Node))
	})
	syn("declStmtInit", "ownErrs", func(t *attr.Tree) any {
		d := t.Value.(*ast.DeclStmt)
		_, ty, errs := declCheck(t)
		it := typOf(t.Child(0))
		if !types.AssignableTo(it, ty) {
			errs = append(errs, errf(d, "cannot initialize %q of type %s with %s", d.Name, ty, it))
		}
		return errs
	})
	syn("declStmtInit", "envOut", func(t *attr.Tree) any {
		name, ty, _ := declCheck(t)
		return env(t).Bind(name, ty, t.Value.(ast.Node))
	})
	inhCopy("declStmtInit", 0, "env")
	inhConst("declStmtInit", 0, "inIndex", false)

	syn("assign", "ownErrs", func(t *attr.Tree) any {
		a := t.Value.(*ast.AssignStmt)
		var errs errlist
		lhsTypes := typsOf(t.Child(0))
		for _, l := range a.LHS {
			switch l.(type) {
			case *ast.Ident, *ast.IndexExpr:
			default:
				errs = append(errs, errf(l, "cannot assign to %s", ast.ExprString(l)))
			}
		}
		rhs := typOf(t.Child(1))
		if len(a.LHS) > 1 {
			// tuple destructuring (§III-B)
			if rhs.Kind != types.Tuple {
				errs = append(errs, errf(a, "destructuring assignment requires a tuple value, got %s", rhs))
				return errs
			}
			if len(rhs.Elems) != len(a.LHS) {
				errs = append(errs, errf(a, "cannot destructure %d-tuple into %d targets", len(rhs.Elems), len(a.LHS)))
				return errs
			}
			for i, lt := range lhsTypes {
				if !types.AssignableTo(rhs.Elems[i], lt) {
					errs = append(errs, errf(a.LHS[i], "cannot assign %s to %s", rhs.Elems[i], lt))
				}
			}
			return errs
		}
		lt := lhsTypes[0]
		if lt.Kind != types.Invalid && !types.AssignableTo(rhs, lt) {
			// Indexed stores of scalars into matrix slices are checked
			// elementwise: scores[b:i] = <Matrix float<1>> is fine, and
			// m[i, j] = 2 stores a scalar.
			errs = append(errs, errf(a, "cannot assign %s to %s", rhs, lt))
		}
		return errs
	})
	syn("assign", "envOut", func(t *attr.Tree) any { return t.Inh("env") })
	inhCopy("assign", -1, "env")
	inhConst("assign", 0, "inIndex", false)
	inhConst("assign", 1, "inIndex", false)

	condCheck := func(name string) func(t *attr.Tree) any {
		return func(t *attr.Tree) any {
			ct := typOf(t.Child(0))
			if ct.Kind != types.Bool && ct.Kind != types.Invalid {
				return errlist{errf(t.Value.(ast.Node), "%s condition must be bool, got %s", name, ct)}
			}
			return errlist(nil)
		}
	}
	syn("ifStmt", "ownErrs", condCheck("if"))
	syn("ifStmt", "envOut", func(t *attr.Tree) any { return t.Inh("env") })
	inhCopy("ifStmt", -1, "env")
	inhConst("ifStmt", 0, "inIndex", false)
	inhCopy("ifStmt", 1, "retType")
	inhCopy("ifStmt", 1, "inLoop")

	syn("ifElseStmt", "ownErrs", condCheck("if"))
	syn("ifElseStmt", "envOut", func(t *attr.Tree) any { return t.Inh("env") })
	inhCopy("ifElseStmt", -1, "env")
	inhConst("ifElseStmt", 0, "inIndex", false)
	inhCopy("ifElseStmt", 1, "retType")
	inhCopy("ifElseStmt", 1, "inLoop")
	inhCopy("ifElseStmt", 2, "retType")
	inhCopy("ifElseStmt", 2, "inLoop")

	syn("whileStmt", "ownErrs", condCheck("while"))
	syn("whileStmt", "envOut", func(t *attr.Tree) any { return t.Inh("env") })
	inhCopy("whileStmt", -1, "env")
	inhConst("whileStmt", 0, "inIndex", false)
	inhCopy("whileStmt", 1, "retType")
	inhConst("whileStmt", 1, "inLoop", true)

	syn("forStmt", "ownErrs", func(t *attr.Tree) any {
		ct := typOf(t.Child(1))
		if ct.Kind != types.Bool && ct.Kind != types.Invalid {
			return errlist{errf(t.Value.(ast.Node), "for condition must be bool, got %s", ct)}
		}
		return errlist(nil)
	})
	syn("forStmt", "envOut", func(t *attr.Tree) any { return t.Inh("env") })
	inh("forStmt", 0, "env", func(p *attr.Tree, c int) any { return env(p).Push() })
	inh("forStmt", 1, "env", func(p *attr.Tree, c int) any { return p.Child(0).Syn("envOut") })
	inh("forStmt", 2, "env", func(p *attr.Tree, c int) any { return p.Child(0).Syn("envOut") })
	inh("forStmt", 3, "env", func(p *attr.Tree, c int) any { return p.Child(0).Syn("envOut") })
	inhConst("forStmt", 1, "inIndex", false)
	inhCopy("forStmt", 0, "retType")
	inhCopy("forStmt", 2, "retType")
	inhCopy("forStmt", 3, "retType")
	inhConst("forStmt", 0, "inLoop", false)
	inhConst("forStmt", 2, "inLoop", true)
	inhConst("forStmt", 3, "inLoop", true)

	syn("emptyStmt", "envOut", func(t *attr.Tree) any { return t.Inh("env") })

	syn("returnStmt", "ownErrs", func(t *attr.Tree) any {
		ret := t.Inh("retType").(*types.Type)
		vt := typOf(t.Child(0))
		if ret.Kind == types.Void {
			return errlist{errf(t.Value.(ast.Node), "void function cannot return a value")}
		}
		if !types.AssignableTo(vt, ret) {
			return errlist{errf(t.Value.(ast.Node), "cannot return %s from a function returning %s", vt, ret)}
		}
		return errlist(nil)
	})
	syn("returnStmt", "envOut", func(t *attr.Tree) any { return t.Inh("env") })
	inhCopy("returnStmt", 0, "env")
	inhConst("returnStmt", 0, "inIndex", false)

	syn("returnVoid", "ownErrs", func(t *attr.Tree) any {
		ret := t.Inh("retType").(*types.Type)
		if ret.Kind != types.Void {
			return errlist{errf(t.Value.(ast.Node), "missing return value in function returning %s", ret)}
		}
		return errlist(nil)
	})
	syn("returnVoid", "envOut", func(t *attr.Tree) any { return t.Inh("env") })

	syn("exprStmt", "envOut", func(t *attr.Tree) any { return t.Inh("env") })
	inhCopy("exprStmt", 0, "env")
	inhConst("exprStmt", 0, "inIndex", false)

	loopOnly := func(word string) func(t *attr.Tree) any {
		return func(t *attr.Tree) any {
			if !t.Inh("inLoop").(bool) {
				return errlist{errf(t.Value.(ast.Node), "%s outside a loop", word)}
			}
			return errlist(nil)
		}
	}
	syn("breakStmt", "ownErrs", loopOnly("break"))
	syn("breakStmt", "envOut", func(t *attr.Tree) any { return t.Inh("env") })
	syn("continueStmt", "ownErrs", loopOnly("continue"))
	syn("continueStmt", "envOut", func(t *attr.Tree) any { return t.Inh("env") })

	// --- expressions ---
	noErrs("intLit", "floatLit", "boolLit", "strLit", "exprList", "idxArgList", "tupleExpr")
	typEq("intLit", func(t *attr.Tree) *types.Type { return types.IntT })
	typEq("floatLit", func(t *attr.Tree) *types.Type { return types.FloatT })
	typEq("boolLit", func(t *attr.Tree) *types.Type { return types.BoolT })
	typEq("strLit", func(t *attr.Tree) *types.Type { return types.StringT })

	typEq("ident", func(t *attr.Tree) *types.Type {
		id := t.Value.(*ast.Ident)
		if sym := env(t).Lookup(id.Name); sym != nil {
			return sym.Type
		}
		return types.InvalidT
	})
	syn("ident", "ownErrs", func(t *attr.Tree) any {
		id := t.Value.(*ast.Ident)
		if env(t).Lookup(id.Name) == nil {
			return errlist{errf(id, "undeclared variable %q", id.Name)}
		}
		return errlist(nil)
	})

	typEq("binary", func(t *attr.Tree) *types.Type {
		e := t.Value.(*ast.BinaryExpr)
		res, _ := types.BinaryResult(e.Op, typOf(t.Child(0)), typOf(t.Child(1)))
		return res
	})
	syn("binary", "ownErrs", func(t *attr.Tree) any {
		e := t.Value.(*ast.BinaryExpr)
		if _, err := types.BinaryResult(e.Op, typOf(t.Child(0)), typOf(t.Child(1))); err != nil {
			return errlist{errf(e, "%v", err)}
		}
		return errlist(nil)
	})
	inhCopy("binary", -1, "env")
	inhCopy("binary", 0, "inIndex")
	inhCopy("binary", 1, "inIndex")

	typEq("unary", func(t *attr.Tree) *types.Type {
		e := t.Value.(*ast.UnaryExpr)
		res, _ := types.UnaryResult(e.Op, typOf(t.Child(0)))
		return res
	})
	syn("unary", "ownErrs", func(t *attr.Tree) any {
		e := t.Value.(*ast.UnaryExpr)
		if _, err := types.UnaryResult(e.Op, typOf(t.Child(0))); err != nil {
			return errlist{errf(e, "%v", err)}
		}
		return errlist(nil)
	})
	inhCopy("unary", 0, "env")
	inhCopy("unary", 0, "inIndex")

	callResolve := func(t *attr.Tree) (*types.Type, errlist) {
		e := t.Value.(*ast.CallExpr)
		args := typsOf(t.Child(0))
		if sym := env(t).Lookup(e.Fun); sym != nil {
			ft := sym.Type
			if ft.Kind != types.Func {
				return types.InvalidT, errlist{errf(e, "%q is not a function", e.Fun)}
			}
			if len(args) != len(ft.Params) {
				return types.InvalidT, errlist{errf(e, "%q expects %d argument(s), got %d", e.Fun, len(ft.Params), len(args))}
			}
			var errs errlist
			for i, at := range args {
				if !types.AssignableTo(at, ft.Params[i]) {
					errs = append(errs, errf(e.Args[i], "argument %d of %q: cannot use %s as %s", i+1, e.Fun, at, ft.Params[i]))
				}
			}
			return ft.Ret, errs
		}
		if bf, ok := builtins[e.Fun]; ok {
			return bf(args, e)
		}
		return types.InvalidT, errlist{errf(e, "undeclared function %q", e.Fun)}
	}
	typEq("call", func(t *attr.Tree) *types.Type { ty, _ := callResolve(t); return ty })
	syn("call", "ownErrs", func(t *attr.Tree) any { _, errs := callResolve(t); return errs })
	inhCopy("call", 0, "env")
	inhConst("call", 0, "inIndex", false)

	typEq("cast", func(t *attr.Tree) *types.Type {
		e := t.Value.(*ast.CastExpr)
		switch e.To {
		case ast.PrimInt:
			return types.IntT
		case ast.PrimFloat:
			return types.FloatT
		case ast.PrimBool:
			return types.BoolT
		}
		return types.InvalidT
	})
	syn("cast", "ownErrs", func(t *attr.Tree) any {
		e := t.Value.(*ast.CastExpr)
		xt := typOf(t.Child(0))
		if xt.Kind == types.Invalid {
			return errlist(nil)
		}
		if !xt.IsNumeric() && xt.Kind != types.Bool {
			return errlist{errf(e, "cannot cast %s to %s", xt, e.To)}
		}
		if e.To == ast.PrimVoid || e.To == ast.PrimString {
			return errlist{errf(e, "cannot cast to %s", e.To)}
		}
		return errlist(nil)
	})
	inhCopy("cast", 0, "env")
	inhCopy("cast", 0, "inIndex")

	indexResolve := func(t *attr.Tree) (*types.Type, errlist) {
		e := t.Value.(*ast.IndexExpr)
		base := typOf(t.Child(0))
		if base.Kind == types.Invalid {
			return types.InvalidT, nil
		}
		if base.Kind == types.AnyMatrix {
			return types.InvalidT, errlist{errf(e, "cannot index an unresolved matrix; assign it to a declared Matrix variable first")}
		}
		if base.Kind != types.Matrix {
			return types.InvalidT, errlist{errf(e, "cannot index %s", base)}
		}
		argsT := t.Child(1)
		if argsT.NumChildren() != base.Rank {
			return types.InvalidT, errlist{errf(e, "matrix of rank %d requires %d index expression(s), got %d",
				base.Rank, base.Rank, argsT.NumChildren())}
		}
		kept := 0
		for i := 0; i < argsT.NumChildren(); i++ {
			ai := argsT.Child(i).Syn("argInfo").(idxInfo)
			switch ai.kind {
			case idxRangeK, idxAllK, idxMaskK:
				kept++
			case idxBadK:
				return types.InvalidT, nil // error reported at the arg
			}
		}
		if kept == 0 {
			return base.Elem, nil
		}
		return types.MatrixOf(base.Elem, kept), nil
	}
	typEq("index", func(t *attr.Tree) *types.Type { ty, _ := indexResolve(t); return ty })
	syn("index", "ownErrs", func(t *attr.Tree) any { _, errs := indexResolve(t); return errs })
	inhCopy("index", 0, "env")
	inhConst("index", 0, "inIndex", false)
	inhCopy("index", 1, "env")

	typEq("endExpr", func(t *attr.Tree) *types.Type { return types.IntT })
	syn("endExpr", "ownErrs", func(t *attr.Tree) any {
		if !t.Inh("inIndex").(bool) {
			return errlist{errf(t.Value.(ast.Node), "'end' is only valid inside matrix index expressions")}
		}
		return errlist(nil)
	})

	typEq("rangeExpr", func(t *attr.Tree) *types.Type { return types.MatrixOf(types.IntT, 1) })
	syn("rangeExpr", "ownErrs", func(t *attr.Tree) any {
		var errs errlist
		for i := 0; i < 2; i++ {
			if ty := typOf(t.Child(i)); ty.Kind != types.Int && ty.Kind != types.Invalid {
				errs = append(errs, errf(t.Value.(ast.Node), "range bound must be int, got %s", ty))
			}
		}
		return errs
	})
	inhCopy("rangeExpr", -1, "env")
	inhCopy("rangeExpr", 0, "inIndex")
	inhCopy("rangeExpr", 1, "inIndex")

	typEq("tupleExpr", func(t *attr.Tree) *types.Type {
		return types.TupleOf(typsOf(t.Child(0))...)
	})
	inhCopy("tupleExpr", 0, "env")
	inhConst("tupleExpr", 0, "inIndex", false)

	syn("exprList", "typs", func(t *attr.Tree) any {
		out := make([]*types.Type, t.NumChildren())
		for i := range out {
			out[i] = typOf(t.Child(i))
		}
		return out
	})
	inhCopy("exprList", -1, "env")
	inh("exprList", -1, "inIndex", func(p *attr.Tree, c int) any { return p.Inh("inIndex") })

	inhCopy("idxArgList", -1, "env")

	syn("idxScalar", "argInfo", func(t *attr.Tree) any {
		ty := typOf(t.Child(0))
		switch {
		case ty.Kind == types.Int:
			return idxInfo{idxScalarK}
		case ty.Kind == types.Matrix && ty.Elem.Kind == types.Bool && ty.Rank == 1:
			return idxInfo{idxMaskK} // logical indexing, §III-A.3(d)
		case ty.Kind == types.Invalid:
			return idxInfo{idxBadK}
		}
		return idxInfo{idxBadK}
	})
	syn("idxScalar", "ownErrs", func(t *attr.Tree) any {
		ty := typOf(t.Child(0))
		if ty.Kind == types.Int || ty.Kind == types.Invalid {
			return errlist(nil)
		}
		if ty.Kind == types.Matrix && ty.Elem.Kind == types.Bool && ty.Rank == 1 {
			return errlist(nil)
		}
		return errlist{errf(t.Value.(ast.Node), "index must be an int or a rank-1 bool matrix (logical index), got %s", ty)}
	})
	inhCopy("idxScalar", 0, "env")
	inhConst("idxScalar", 0, "inIndex", true)

	syn("idxRange", "argInfo", func(t *attr.Tree) any {
		lo, hi := typOf(t.Child(0)), typOf(t.Child(1))
		if (lo.Kind == types.Int || lo.Kind == types.Invalid) && (hi.Kind == types.Int || hi.Kind == types.Invalid) {
			return idxInfo{idxRangeK}
		}
		return idxInfo{idxBadK}
	})
	syn("idxRange", "ownErrs", func(t *attr.Tree) any {
		var errs errlist
		for i := 0; i < 2; i++ {
			if ty := typOf(t.Child(i)); ty.Kind != types.Int && ty.Kind != types.Invalid {
				errs = append(errs, errf(t.Value.(ast.Node), "range index bound must be int, got %s", ty))
			}
		}
		return errs
	})
	inhCopy("idxRange", -1, "env")
	inhConst("idxRange", 0, "inIndex", true)
	inhConst("idxRange", 1, "inIndex", true)

	syn("idxAll", "argInfo", func(t *attr.Tree) any { return idxInfo{idxAllK} })
	noErrs("idxAll")

	addErrsProjections(s, info)
	return s
}

// addErrsProjections generates, for every production in the spec, the
// "errs" equation: own errors plus the concatenation of all children's
// errors. For expression-valued productions it also forces "typ" so
// that Info.Types is fully populated.
func addErrsProjections(s *attr.AGSpec, info *Info) {
	hasTyp := func(lhs string) bool { return lhs == ntExpr || lhs == ntWithOp }
	for _, p := range s.Prods {
		prod := p
		s.SynEqs = append(s.SynEqs, attr.SynEq{Prod: prod.Name, Attr: "errs", Owner: s.Name,
			F: func(t *attr.Tree) any {
				if hasTyp(prod.LHS) {
					t.Syn("typ")
				}
				out := append(errlist(nil), t.Syn("ownErrs").(errlist)...)
				for i := 0; i < t.NumChildren(); i++ {
					out = append(out, t.Child(i).Syn("errs").(errlist)...)
				}
				return out
			}})
	}
	_ = info
}

// fmtNames joins names for error messages.
func fmtNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

var _ = fmt.Sprintf
