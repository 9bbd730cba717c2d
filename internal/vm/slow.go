// Handlers for the non-arithmetic opcodes: indexing, allocation,
// tuples, calls, builtins, with-loops, matrixMap and Cilk spawn/sync.
// Split out of the dispatch loop to keep the hot switch small.
package vm

import (
	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/rc"
)

func (mc *Machine) execSlow(fr *frame, in *instr) error {
	regs := fr.regs
	switch in.op {
	case opIdxCheck:
		m, ok := regs[in.a].r.(*matrix.Matrix)
		if !ok || m == nil {
			if in.c != 0 {
				return interp.Errorf(in.nd, "cannot index-assign into a non-matrix or unassigned matrix")
			}
			return interp.Errorf(in.nd, "cannot index a non-matrix or unassigned matrix")
		}
		if int(in.b) != m.Rank() {
			return interp.Errorf(in.nd, "matrix of rank %d requires %d index expression(s), got %d",
				m.Rank(), m.Rank(), int(in.b))
		}

	case opDimEnd:
		m := regs[in.b].r.(*matrix.Matrix)
		size, err := m.DimSize(int(in.c))
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		regs[in.a].i = int64(size - 1)

	case opIndex:
		d := in.aux.(*indexDesc)
		m := regs[in.b].r.(*matrix.Matrix)
		specs, err := fr.buildSpecs(d.plans)
		if err != nil {
			return err
		}
		v, err := m.Index(specs...)
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		return fr.store(in.a, class(in.c), v, in.nd)

	case opSetIndex:
		d := in.aux.(*setIndexDesc)
		m := regs[in.a].r.(*matrix.Matrix)
		specs, err := fr.buildSpecs(d.plans)
		if err != nil {
			return err
		}
		return interp.WrapError(in.nd, m.SetIndex(fr.box(d.val), specs...))

	case opIdx1F:
		m := regs[in.b].r.(*matrix.Matrix)
		i := regs[in.c].i
		if raw := m.Floats(); i >= 0 && int(i) < len(raw) {
			regs[in.a].f = raw[i]
			break
		}
		v, err := m.Index(matrix.Scalar(int(i)))
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		return fr.store(in.a, clF, v, in.nd)
	case opIdx1I:
		m := regs[in.b].r.(*matrix.Matrix)
		i := regs[in.c].i
		if raw := m.Ints(); i >= 0 && int(i) < len(raw) {
			regs[in.a].i = raw[i]
			break
		}
		v, err := m.Index(matrix.Scalar(int(i)))
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		return fr.store(in.a, clI, v, in.nd)
	case opIdx1B:
		m := regs[in.b].r.(*matrix.Matrix)
		i := regs[in.c].i
		if raw := m.Bools(); i >= 0 && int(i) < len(raw) {
			regs[in.a].i = b2i(raw[i])
			break
		}
		v, err := m.Index(matrix.Scalar(int(i)))
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		return fr.store(in.a, clB, v, in.nd)

	case opSetIdx1F:
		m := regs[in.a].r.(*matrix.Matrix)
		i := regs[in.b].i
		if raw := m.Floats(); i >= 0 && int(i) < len(raw) {
			raw[i] = regs[in.c].f
			break
		}
		return interp.WrapError(in.nd, m.SetIndex(regs[in.c].f, matrix.Scalar(int(i))))
	case opSetIdx1I:
		m := regs[in.a].r.(*matrix.Matrix)
		i := regs[in.b].i
		if raw := m.Ints(); i >= 0 && int(i) < len(raw) {
			raw[i] = regs[in.c].i
			break
		}
		return interp.WrapError(in.nd, m.SetIndex(regs[in.c].i, matrix.Scalar(int(i))))
	case opSetIdx1B:
		m := regs[in.a].r.(*matrix.Matrix)
		i := regs[in.b].i
		if raw := m.Bools(); i >= 0 && int(i) < len(raw) {
			raw[i] = regs[in.c].i != 0
			break
		}
		return interp.WrapError(in.nd, m.SetIndex(regs[in.c].i != 0, matrix.Scalar(int(i))))

	case opRange:
		lo, hi := regs[in.b].i, regs[in.c].i
		if hi >= lo {
			if err := mc.in.ChargeCells(in.nd, hi-lo+1); err != nil {
				return err
			}
		}
		regs[in.a].r = matrix.Range(lo, hi)

	case opCheckDim:
		if n := regs[in.a].i; n < 0 {
			return interp.Errorf(in.nd, "init dimension %d is negative (%d)", int(in.b), n)
		}

	case opInit:
		d := in.aux.(*initDesc)
		dims := make([]int, len(d.dims))
		for k, r := range d.dims {
			dims[k] = int(regs[r].i)
		}
		m, err := matrix.NewBudgeted(mc.in.Budget(), d.elem, dims...)
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		regs[in.a].r = m

	case opTuple:
		ds := in.aux.([]argDesc)
		out := make([]any, len(ds))
		for k, d := range ds {
			out[k] = fr.box(d)
		}
		regs[in.a].r = out

	case opTupCheck:
		tup, ok := regs[in.a].r.([]any)
		if !ok || len(tup) != int(in.b) {
			return interp.Errorf(in.nd, "destructuring assignment requires a %d-tuple", int(in.b))
		}

	case opTupGet:
		regs[in.a].r = regs[in.b].r.([]any)[in.c]

	case opCall:
		d := in.aux.(*callDesc)
		args := make([]any, len(d.args))
		for k, ad := range d.args {
			args[k] = fr.box(ad)
		}
		v, err := mc.callProto(d.proto, args, in.nd, fr.depth, fr.pool, &fr.pending)
		if err != nil {
			return err
		}
		if in.a >= 0 {
			return fr.store(in.a, d.retCl, v, in.nd)
		}

	case opPrint:
		mc.in.PrintValue(fr.box(in.aux.(argDesc)))

	case opDimSize:
		ds := in.aux.([]argDesc)
		m, ok := fr.box(ds[0]).(*matrix.Matrix)
		if !ok || m == nil {
			return interp.Errorf(in.nd, "dimSize of a non-matrix or unassigned matrix")
		}
		dv, ok := fr.box(ds[1]).(int64)
		if !ok {
			return interp.Errorf(in.nd, "dimSize dimension must be int")
		}
		n, err := m.DimSize(int(dv))
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		regs[in.a].i = int64(n)

	case opReadM:
		name, ok := fr.box(in.aux.(argDesc)).(string)
		if !ok {
			return interp.Errorf(in.nd, "readMatrix expects a file name string")
		}
		m, err := mc.in.ReadMatrixFile(in.nd, name)
		if err != nil {
			return err
		}
		regs[in.a].r = m

	case opWriteM:
		ds := in.aux.([]argDesc)
		name, _ := fr.box(ds[0]).(string)
		m, ok := fr.box(ds[1]).(*matrix.Matrix)
		if !ok || m == nil {
			return interp.Errorf(in.nd, "writeMatrix of a non-matrix or unassigned matrix")
		}
		return mc.in.WriteMatrixFile(in.nd, name, m)

	case opRcNew:
		cell, h := mc.in.RcNew(fr.box(in.aux.(argDesc)))
		fr.pending = append(fr.pending, h)
		regs[in.a].r = cell

	case opRcGet:
		v, err := mc.in.RcGet(in.nd, fr.box(in.aux.(argDesc)))
		if err != nil {
			return err
		}
		return fr.store(in.a, class(in.c), v, in.nd)

	case opRcSet:
		d := in.aux.(*rcSetDesc)
		return mc.in.RcSet(in.nd, fr.box(d.cell), fr.box(d.val), d.elem)

	case opRcRel:
		return mc.in.RcRelease(in.nd, fr.box(in.aux.(argDesc)))

	case opWith:
		return mc.execWith(fr, in)

	case opWithGen, opWithFold:
		if handled, err := mc.execWithFlat(fr, in); handled {
			return err
		}
		return mc.execWith(fr, in)

	case opMatMap:
		return mc.execMatMap(fr, in)

	case opSpawn:
		return mc.execSpawnOp(fr, in)

	case opSync:
		return mc.syncFrame(fr)

	default:
		return interp.Errorf(in.nd, "internal error: unknown opcode %d", in.op)
	}
	return nil
}

// buildSpecs materializes per-dimension index specs from compiled
// plans, mirroring the tree walker's oneIndexSpec.
func (fr *frame) buildSpecs(plans []specPlan) ([]matrix.IndexSpec, error) {
	specs := make([]matrix.IndexSpec, len(plans))
	for k, p := range plans {
		switch p.kind {
		case spScalar:
			specs[k] = matrix.Scalar(int(fr.regs[p.r1].i))
		case spMask:
			specs[k] = matrix.Mask(maskMatrix(fr.regs[p.r1].r))
		case spRange:
			specs[k] = matrix.Span(int(fr.regs[p.r1].i), int(fr.regs[p.r2].i))
		case spAll:
			specs[k] = matrix.All()
		case spDyn:
			switch x := fr.regs[p.r1].r.(type) {
			case int64:
				specs[k] = matrix.Scalar(int(x))
			case *matrix.Matrix:
				specs[k] = matrix.Mask(x)
			default:
				return nil, interp.Errorf(p.nd, "index must be an int or a bool matrix, got %T", x)
			}
		}
	}
	return specs, nil
}

// execWith runs a with-loop: bounds and shape/base come in registers;
// the body proto runs once per generated index in a child frame with
// parallelism disabled (nests distribute the outermost construct
// only, exactly like the tree walker).
func (mc *Machine) execWith(fr *frame, in *instr) error {
	d := in.aux.(*withDesc)
	if d.staticFail != nil {
		return d.staticFail
	}
	lower := make([]int, len(d.lower))
	upper := make([]int, len(d.upper))
	for k := range d.lower {
		lower[k] = int(fr.regs[d.lower[k]].i)
		upper[k] = int(fr.regs[d.upper[k]].i)
	}
	bp := mc.p.protos[d.body]
	template := make([]value, bp.nregs)
	for _, cp := range d.captures {
		template[cp.to] = fr.regs[cp.from]
	}
	bodyNode := bodyExprOf(d.w)
	body := func(idx []int) (any, error) {
		if err := mc.in.CheckCancel(bodyNode); err != nil {
			return nil, err
		}
		bf := &frame{regs: make([]value, bp.nregs), depth: fr.depth + 1}
		copy(bf.regs, template)
		for k := range idx {
			bf.regs[k].i = int64(idx[k])
		}
		err := mc.exec(bf, bp)
		mc.flush(bf)
		if err != nil {
			return nil, err
		}
		return bf.ret, nil
	}
	x := mc.in.Exec(fr.pool)
	if d.fold {
		base := fr.box(d.foldInit)
		if d.promote {
			if iv, ok := base.(int64); ok {
				base = float64(iv)
			}
		}
		out, err := matrix.FoldExec(d.foldKind, base, lower, upper, body, x)
		if err != nil {
			return interp.WrapError(in.nd, err)
		}
		return fr.store(in.a, d.resCl, out, in.nd)
	}
	shape := make([]int, len(d.shape))
	for k, r := range d.shape {
		shape[k] = int(fr.regs[r].i)
	}
	out, err := matrix.GenArrayExec(d.elem, lower, upper, shape, body, x)
	if err != nil {
		return interp.WrapError(in.nd, err)
	}
	fr.regs[in.a].r = out
	return nil
}

// execWithFlat attempts a facts-compiled with-loop on the flat engine,
// which admits through the closure engine's own helpers and so raises
// admission errors itself. handled=false means the flat path declined
// — a leaf register holds an unexpected value, or the flat engine's
// own checks failed (leaf verification, element mismatch, infeasible
// indices) — with nothing observable done: no hook firings, no budget
// charges. The caller then runs the closure engine.
func (mc *Machine) execWithFlat(fr *frame, in *instr) (bool, error) {
	d := in.aux.(*withDesc)
	fp := d.flat
	if fp == nil || d.staticFail != nil {
		return false, nil
	}
	lower := make([]int, len(d.lower))
	upper := make([]int, len(d.upper))
	for k := range d.lower {
		lower[k] = int(fr.regs[d.lower[k]].i)
		upper[k] = int(fr.regs[d.upper[k]].i)
	}
	env := &matrix.WithEnv{Code: fp.code, Float: fp.float}
	if len(fp.mats) > 0 {
		env.Mats = make([]*matrix.Matrix, len(fp.mats))
		for k, r := range fp.mats {
			m, ok := fr.regs[r].r.(*matrix.Matrix)
			if !ok || m == nil || m.Elem() != fp.matEl[k] {
				return false, nil
			}
			env.Mats[k] = m
		}
	}
	if len(fp.sI) > 0 {
		env.ScalarI = make([]int64, len(fp.sI))
		for k, r := range fp.sI {
			env.ScalarI[k] = fr.regs[r].i
		}
	}
	if len(fp.sF) > 0 {
		env.ScalarF = make([]float64, len(fp.sF))
		for k, r := range fp.sF {
			env.ScalarF[k] = fr.regs[r].f
		}
	}
	x := mc.in.Exec(fr.pool)
	if d.fold {
		base := fr.box(d.foldInit)
		if d.promote {
			if iv, ok := base.(int64); ok {
				base = float64(iv)
			}
		}
		out, handled, err := matrix.FoldFlat(d.foldKind, base, lower, upper, env, x)
		if !handled {
			return false, nil
		}
		withFlatRun.Add(1)
		if err != nil {
			return true, interp.WrapError(in.nd, err)
		}
		return true, fr.store(in.a, d.resCl, out, in.nd)
	}
	shape := make([]int, len(d.shape))
	for k, r := range d.shape {
		shape[k] = int(fr.regs[r].i)
	}
	out, handled, err := matrix.GenArrayFlat(d.elem, lower, upper, shape, env, x)
	if !handled {
		return false, nil
	}
	withFlatRun.Add(1)
	if err != nil {
		return true, interp.WrapError(in.nd, err)
	}
	fr.regs[in.a].r = out
	return true, nil
}

// bodyExprOf returns the with-loop's body expression node (the node
// the tree walker attributes per-element cancellation to).
func bodyExprOf(w *ast.WithLoop) ast.Node {
	switch op := w.Op.(type) {
	case *ast.GenArrayOp:
		return op.Body
	case *ast.FoldOp:
		return op.Body
	}
	return w
}

// execMatMap runs matrixMap / matrixMapG, calling the mapped function
// through callProto per sub-matrix.
func (mc *Machine) execMatMap(fr *frame, in *instr) error {
	d := in.aux.(*mapDesc)
	m, ok := fr.box(d.arg).(*matrix.Matrix)
	if !ok || m == nil {
		return interp.Errorf(d.e, "matrixMap requires a matrix argument")
	}
	if d.badDim != nil {
		return interp.Errorf(d.badDim, "matrixMap dimensions must be integer literals")
	}
	if d.fnMissing {
		return interp.Errorf(d.e, "undeclared function %q", d.e.Fun)
	}
	if d.elemFail != nil {
		return d.elemFail
	}
	mapF := func(sub *matrix.Matrix) (*matrix.Matrix, error) {
		var pend []*rc.Header
		release := func() {
			for _, h := range pend {
				h.DecRef()
			}
		}
		v, err := mc.callProto(d.proto, []any{sub}, d.e, fr.depth+1, nil, &pend)
		if err != nil {
			release()
			return nil, err
		}
		res, ok := v.(*matrix.Matrix)
		if !ok || res == nil {
			release()
			return nil, interp.Errorf(d.e, "matrixMap function %q returned %T, want a matrix", d.e.Fun, v)
		}
		// The result is copied into the output before its escape
		// reference is dropped, so the release is safe.
		out := res.Copy()
		release()
		return out, nil
	}
	x := mc.in.Exec(fr.pool)
	var out *matrix.Matrix
	var err error
	if d.general {
		out, err = matrix.MatrixMapGExec(m, d.dims, d.elem, mapF, x)
	} else {
		out, err = matrix.MatrixMapExec(m, d.dims, d.elem, mapF, x)
	}
	if err != nil {
		return interp.WrapError(d.e, err)
	}
	fr.regs[in.a].r = out
	return nil
}

// execSpawnOp launches a Cilk spawn: arguments were evaluated into
// registers by preceding instructions; here they are bound for the
// goroutine's lifetime, the (statically resolved) target is checked,
// and the callee runs in its own goroutine with parallelism disabled.
func (mc *Machine) execSpawnOp(fr *frame, in *instr) error {
	d := in.aux.(*spawnDesc)
	args := make([]any, len(d.args))
	for k, ad := range d.args {
		v := fr.box(ad)
		mc.in.BindValue(v)
		args[k] = v
	}
	if d.target.kind == tgUndeclared {
		return interp.Errorf(d.s, "spawn target %q is not declared", d.name)
	}
	fut := &vmFuture{done: make(chan struct{}), node: d.s, args: args, target: d.target}
	go func() {
		defer close(fut.done)
		defer func() {
			if r := recover(); r != nil {
				fut.err = interp.Recovered(d.s, r)
			}
		}()
		fut.val, fut.err = mc.callProto(d.proto, args, d.s, fr.depth, nil, &fut.pending)
	}()
	fr.futures = append(fr.futures, fut)
	return nil
}
