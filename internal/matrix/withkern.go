// Flat with-loop execution — the kernel half of compiled with-loops.
// vet proves a genarray/fold body is an effect-free index expression
// and compiles it to the tiny postfix instruction set below; the VM
// resolves the leaf slots and calls GenArrayFlat/FoldFlat, which
// evaluate the body directly over the backing slices instead of
// calling back into tree evaluation per element.
//
// The contract with the closure path is byte-exactness, held by shared
// code: GenArrayFlat admits through GenArrayExec's validation and
// allocation helpers (genArrayAdmit, allocCharged) and FoldFlat
// through FoldExec's row driver (foldRows) and identity table, so
// error texts, budget charges, hook firings and float combine order
// are the same by construction. Admission errors are returned with
// handled=true. The flat engine declines — handled=false, nothing
// allocated or charged — only for reasons of its own: leaves that fail
// verification, element types it does not store, and loads the
// up-front interval analysis over the generator box cannot prove in
// bounds.
package matrix

// WithOp is one opcode of the flat with-loop body language: a postfix
// expression machine with separate int and float stacks, no branches
// and no failure paths (loads are proven in bounds, int division is
// not in the language).
type WithOp uint8

// Flat body opcodes. *I opcodes work the int stack, *F the float
// stack; WI2F/WF2I move a value between them (WF2I truncates like the
// (int) cast). WLoadI/WLoadF pop B int indices and push the element of
// matrix slot A.
const (
	WPushID      WithOp = iota // push generator id A
	WPushInt                   // push constant K
	WPushFloat                 // push constant F
	WPushScalarI               // push int scalar slot A
	WPushScalarF               // push float scalar slot A
	WAddI
	WSubI
	WMulI
	WNegI
	WAddF
	WSubF
	WMulF
	WDivF
	WNegF
	WI2F
	WF2I
	WLoadI
	WLoadF
)

// WithInstr is one flat body instruction.
type WithInstr struct {
	Op WithOp
	A  int32   // id index / scalar slot / matrix slot
	B  int32   // load arity
	K  int64   // int constant
	F  float64 // float constant
}

// WithEnv is a flat body bound to its runtime leaves: the code from
// vet's proof, the matrices and scalar values the VM resolved from
// registers, and whether the body's static type is float.
type WithEnv struct {
	Code    []WithInstr
	Mats    []*Matrix
	ScalarI []int64
	ScalarF []float64
	Float   bool
}

// Verify re-checks the env against the runtime leaves; exported so the
// prover's tests can assert every proven plan round-trips through the
// engine's own admission.
func (env *WithEnv) Verify(rank int) bool { return env.verify(rank) }

// verify re-checks the env against the runtime leaves: stack shape,
// slot ranges, matrix rank and element types, and the final value's
// type. vet proved all of this statically, but the matrices only exist
// now — a nil or mistyped leaf makes the flat path decline rather than
// misbehave.
func (env *WithEnv) verify(rank int) bool {
	var ints, floats int
	for i := range env.Code {
		in := &env.Code[i]
		switch in.Op {
		case WPushID:
			if in.A < 0 || int(in.A) >= rank {
				return false
			}
			ints++
		case WPushInt:
			ints++
		case WPushFloat:
			floats++
		case WPushScalarI:
			if in.A < 0 || int(in.A) >= len(env.ScalarI) {
				return false
			}
			ints++
		case WPushScalarF:
			if in.A < 0 || int(in.A) >= len(env.ScalarF) {
				return false
			}
			floats++
		case WAddI, WSubI, WMulI:
			if ints < 2 {
				return false
			}
			ints--
		case WNegI:
			if ints < 1 {
				return false
			}
		case WAddF, WSubF, WMulF, WDivF:
			if floats < 2 {
				return false
			}
			floats--
		case WNegF:
			if floats < 1 {
				return false
			}
		case WI2F:
			if ints < 1 {
				return false
			}
			ints--
			floats++
		case WF2I:
			if floats < 1 {
				return false
			}
			floats--
			ints++
		case WLoadI, WLoadF:
			if in.A < 0 || int(in.A) >= len(env.Mats) {
				return false
			}
			m := env.Mats[in.A]
			ar := int(in.B)
			if m == nil || m.Rank() != ar || ints < ar {
				return false
			}
			ints -= ar
			if in.Op == WLoadI {
				if m.elem != Int {
					return false
				}
				ints++
			} else {
				if m.elem != Float {
					return false
				}
				floats++
			}
		default:
			return false
		}
	}
	if env.Float {
		return floats == 1 && ints == 0
	}
	return ints == 1 && floats == 0
}

// withIvalMax bounds the interval analysis: a value whose magnitude
// may exceed it becomes unknown, and unknown values cannot feed a
// load. Loop ids and affine offsets stay far below it.
const withIvalMax = int64(1) << 40

type wival struct {
	lo, hi int64
	known  bool
}

func wivalConst(v int64) wival {
	if v > withIvalMax || v < -withIvalMax {
		return wival{}
	}
	return wival{lo: v, hi: v, known: true}
}

func wivalClamp(w wival) wival {
	if !w.known || w.lo > withIvalMax || w.lo < -withIvalMax || w.hi > withIvalMax || w.hi < -withIvalMax {
		return wival{}
	}
	return w
}

// feasible runs the body once over intervals — each id spanning its
// generator range — and proves every load index lands inside its
// matrix for every index in the box. Sound over-approximation: an
// interval it cannot bound (scalar too large, truncated float,
// non-monotone product growth) makes the load infeasible and the whole
// loop falls back to the closure path. The box must be non-empty.
func (env *WithEnv) feasible(lower, upper []int) bool {
	is := make([]wival, 0, len(env.Code))
	floats := 0
	for i := range env.Code {
		in := &env.Code[i]
		switch in.Op {
		case WPushID:
			is = append(is, wivalClamp(wival{lo: int64(lower[in.A]), hi: int64(upper[in.A] - 1), known: true}))
		case WPushInt:
			is = append(is, wivalConst(in.K))
		case WPushScalarI:
			is = append(is, wivalConst(env.ScalarI[in.A]))
		case WPushFloat:
			floats++
		case WPushScalarF:
			floats++
		case WAddI, WSubI:
			n := len(is)
			a, b := is[n-2], is[n-1]
			var r wival
			if a.known && b.known {
				if in.Op == WAddI {
					r = wival{lo: a.lo + b.lo, hi: a.hi + b.hi, known: true}
				} else {
					r = wival{lo: a.lo - b.hi, hi: a.hi - b.lo, known: true}
				}
			}
			is = append(is[:n-2], wivalClamp(r))
		case WMulI:
			n := len(is)
			a, b := is[n-2], is[n-1]
			var r wival
			const mulMax = int64(1) << 31
			if a.known && b.known &&
				a.lo >= -mulMax && a.hi <= mulMax && b.lo >= -mulMax && b.hi <= mulMax {
				p1, p2, p3, p4 := a.lo*b.lo, a.lo*b.hi, a.hi*b.lo, a.hi*b.hi
				r = wival{lo: min(min(p1, p2), min(p3, p4)), hi: max(max(p1, p2), max(p3, p4)), known: true}
			}
			is = append(is[:n-2], wivalClamp(r))
		case WNegI:
			n := len(is)
			a := is[n-1]
			if a.known {
				is[n-1] = wival{lo: -a.hi, hi: -a.lo, known: true}
			} else {
				is[n-1] = wival{}
			}
		case WAddF, WSubF, WMulF, WDivF:
			floats--
		case WNegF:
			// float stack depth unchanged
		case WI2F:
			is = is[:len(is)-1]
			floats++
		case WF2I:
			floats--
			is = append(is, wival{})
		case WLoadI, WLoadF:
			m := env.Mats[in.A]
			ar := int(in.B)
			base := len(is) - ar
			for d := 0; d < ar; d++ {
				w := is[base+d]
				if !w.known || w.lo < 0 || w.hi >= int64(m.shape[d]) {
					return false
				}
			}
			is = is[:base]
			if in.Op == WLoadI {
				is = append(is, wival{})
			} else {
				floats++
			}
		}
	}
	return true
}

// withEval evaluates a verified body; one per worker chunk (the stacks
// are scratch state). No checks remain at this level.
type withEval struct {
	env *WithEnv
	is  []int64
	fs  []float64
}

func newWithEval(env *WithEnv) *withEval {
	n := len(env.Code) + 1
	return &withEval{env: env, is: make([]int64, 0, n), fs: make([]float64, 0, n)}
}

func (e *withEval) run(idx []int) {
	is, fs := e.is[:0], e.fs[:0]
	code := e.env.Code
	for pc := range code {
		in := &code[pc]
		switch in.Op {
		case WPushID:
			is = append(is, int64(idx[in.A]))
		case WPushInt:
			is = append(is, in.K)
		case WPushFloat:
			fs = append(fs, in.F)
		case WPushScalarI:
			is = append(is, e.env.ScalarI[in.A])
		case WPushScalarF:
			fs = append(fs, e.env.ScalarF[in.A])
		case WAddI:
			n := len(is)
			is[n-2] += is[n-1]
			is = is[:n-1]
		case WSubI:
			n := len(is)
			is[n-2] -= is[n-1]
			is = is[:n-1]
		case WMulI:
			n := len(is)
			is[n-2] *= is[n-1]
			is = is[:n-1]
		case WNegI:
			is[len(is)-1] = -is[len(is)-1]
		case WAddF:
			n := len(fs)
			fs[n-2] += fs[n-1]
			fs = fs[:n-1]
		case WSubF:
			n := len(fs)
			fs[n-2] -= fs[n-1]
			fs = fs[:n-1]
		case WMulF:
			n := len(fs)
			fs[n-2] *= fs[n-1]
			fs = fs[:n-1]
		case WDivF:
			n := len(fs)
			fs[n-2] /= fs[n-1]
			fs = fs[:n-1]
		case WNegF:
			fs[len(fs)-1] = -fs[len(fs)-1]
		case WI2F:
			fs = append(fs, float64(is[len(is)-1]))
			is = is[:len(is)-1]
		case WF2I:
			is = append(is, int64(fs[len(fs)-1]))
			fs = fs[:len(fs)-1]
		case WLoadI:
			m := e.env.Mats[in.A]
			ar := int(in.B)
			base := len(is) - ar
			off := 0
			for d := 0; d < ar; d++ {
				off += int(is[base+d]) * m.strides[d]
			}
			is = append(is[:base], m.i[off])
		case WLoadF:
			m := e.env.Mats[in.A]
			ar := int(in.B)
			base := len(is) - ar
			off := 0
			for d := 0; d < ar; d++ {
				off += int(is[base+d]) * m.strides[d]
			}
			is = is[:base]
			fs = append(fs, m.f[off])
		}
	}
	e.is, e.fs = is, fs
}

func (e *withEval) evalI(idx []int) int64 {
	e.run(idx)
	return e.is[0]
}

func (e *withEval) evalF(idx []int) float64 {
	e.run(idx)
	return e.fs[0]
}

// matchSingleLoad recognizes a body that is exactly one matrix load
// whose d-th index is id perm[d] plus a constant offset (id, id+c,
// id-c, c+id), with an optional trailing WI2F. Returns nil when the
// body has any other shape.
type withLoadPlan struct {
	mat  int
	perm []int
	off  []int64
	i2f  bool
}

func matchSingleLoad(code []WithInstr) *withLoadPlan {
	p := &withLoadPlan{}
	pc := 0
	for pc < len(code) {
		in := code[pc]
		if in.Op == WLoadI || in.Op == WLoadF {
			break
		}
		// one index expression: id [const (add|sub)] or const id add
		switch in.Op {
		case WPushID:
			if pc+2 < len(code) && code[pc+1].Op == WPushInt &&
				(code[pc+2].Op == WAddI || code[pc+2].Op == WSubI) {
				off := code[pc+1].K
				if code[pc+2].Op == WSubI {
					off = -off
				}
				p.perm = append(p.perm, int(in.A))
				p.off = append(p.off, off)
				pc += 3
			} else {
				p.perm = append(p.perm, int(in.A))
				p.off = append(p.off, 0)
				pc++
			}
		case WPushInt:
			if pc+2 < len(code) && code[pc+1].Op == WPushID && code[pc+2].Op == WAddI {
				p.perm = append(p.perm, int(code[pc+1].A))
				p.off = append(p.off, in.K)
				pc += 3
			} else {
				return nil
			}
		default:
			return nil
		}
	}
	if pc >= len(code) {
		return nil
	}
	load := code[pc]
	if int(load.B) != len(p.perm) {
		return nil
	}
	p.mat = int(load.A)
	pc++
	if pc < len(code) {
		if code[pc].Op != WI2F || load.Op != WLoadI || pc != len(code)-1 {
			return nil
		}
		p.i2f = true
		pc++
	}
	if pc != len(code) {
		return nil
	}
	return p
}

// GenArrayFlat is the flat engine for a proven genarray body. It
// admits exactly like GenArrayExec and returns its admission and
// allocation errors with handled=true. It returns handled=false —
// having allocated nothing and fired no hooks — when the body or
// leaves fall outside what the flat engine handles, and the closure
// path must run instead. When handled, the result (matrix, budget
// charges, alloc-hook firings, error) is observably identical to
// GenArrayExec with a closure of the same body.
func GenArrayFlat(elem Elem, lower, upper, shape []int, env *WithEnv, x Exec) (*Matrix, bool, error) {
	n, err := genArrayAdmit(lower, upper, shape)
	if err != nil {
		return nil, true, err
	}
	rank := len(shape)
	if rank == 0 || !env.verify(rank) {
		return nil, false, nil
	}
	if env.Float && elem != Float {
		return nil, false, nil
	}
	if !env.Float && elem == Bool {
		return nil, false, nil
	}
	empty := false
	full := true
	for d := range shape {
		if upper[d] <= lower[d] {
			empty = true
		}
		if lower[d] != 0 || upper[d] != shape[d] {
			full = false
		}
	}
	if !empty && !env.feasible(lower, upper) {
		return nil, false, nil
	}
	// Cells outside the generator box must read zero, so only a box
	// covering the whole shape may skip zeroing a reused buffer.
	out, err := allocCharged(x.Budget, elem, shape, n, !full || empty)
	if err != nil {
		return nil, true, err
	}
	if n == 0 || empty {
		return out, true, nil
	}

	// Transpose pattern: out[i,j] = m[j,i] over the whole matrix runs
	// the cache-blocked transpose kernel.
	if lp := matchSingleLoad(env.Code); lp != nil && full && !lp.i2f && rank == 2 &&
		lp.perm[0] == 1 && lp.perm[1] == 0 && lp.off[0] == 0 && lp.off[1] == 0 {
		m := env.Mats[lp.mat]
		if m.elem == elem && m.shape[0] == shape[1] && m.shape[1] == shape[0] {
			kernelTransposeCount.Add(1)
			srcRows, srcCols := m.shape[0], m.shape[1]
			grainRows := 1
			if srcCols > 0 {
				grainRows = (ParallelGrain + srcCols - 1) / srcCols
			}
			grainRows = (grainRows + transposeBlock - 1) / transposeBlock * transposeBlock
			var body func(lo, hi int) error
			if elem == Float {
				src, dst := m.f, out.f
				body = func(lo, hi int) error { transposeTiles(dst, src, lo, hi, srcRows, srcCols); return nil }
			} else {
				src, dst := m.i, out.i
				body = func(lo, hi int) error { transposeTiles(dst, src, lo, hi, srcRows, srcCols); return nil }
			}
			if err := runWithKernel(x, srcRows, grainRows, body); err != nil {
				out.Recycle()
				return nil, true, err
			}
			return out, true, nil
		}
	}

	// General path: evaluate the postfix body per cell, one odometer
	// walk per row band, rows distributed over the pool.
	n0 := upper[0] - lower[0]
	perRow := 1
	for d := 1; d < rank; d++ {
		perRow *= upper[d] - lower[d]
	}
	cost := perRow * len(env.Code)
	grainRows := 1
	if cost > 0 {
		grainRows = (ParallelGrain + cost - 1) / cost
	}
	err = runWithKernel(x, n0, grainRows, func(lo, hi int) error {
		genFillRows(out, env, elem, lower, upper, lower[0]+lo, lower[0]+hi)
		return nil
	})
	if err != nil {
		out.Recycle()
		return nil, true, err
	}
	return out, true, nil
}

// runWithKernel distributes genarray rows like runKernel, except the
// pool engages whenever GenArrayExec's would (Pool non-nil, two or
// more rows): pool-worker observables — injected test panics, traps
// attributed to workers — must be identical across engines, and the
// closure path parallelizes every pool-backed loop regardless of size.
func runWithKernel(x Exec, n, grain int, body func(lo, hi int) error) error {
	if x.Pool != nil && n >= 2 && n < 2*grain {
		grain = n / 2 // force runKernel's parallel branch
	}
	return runKernel(x, n, grain, body)
}

// genFillRows fills output rows [r0, r1) of the generator box by
// direct postfix evaluation, walking the box odometer with an
// incrementally-maintained output offset.
func genFillRows(out *Matrix, env *WithEnv, elem Elem, lower, upper []int, r0, r1 int) {
	rank := len(lower)
	e := newWithEval(env)
	idx := make([]int, rank)
	// 0 = int body into int cells, 1 = float body, 2 = int body
	// store-promoted into float cells.
	store := 0
	if env.Float {
		store = 1
	} else if elem == Float {
		store = 2
	}
	for i0 := r0; i0 < r1; i0++ {
		idx[0] = i0
		off := i0 * out.strides[0]
		for d := 1; d < rank; d++ {
			idx[d] = lower[d]
			off += lower[d] * out.strides[d]
		}
		for {
			switch store {
			case 0:
				out.i[off] = e.evalI(idx)
			case 1:
				out.f[off] = e.evalF(idx)
			default:
				out.f[off] = float64(e.evalI(idx))
			}
			d := rank - 1
			for ; d >= 1; d-- {
				idx[d]++
				off += out.strides[d]
				if idx[d] < upper[d] {
					break
				}
				off -= (upper[d] - lower[d]) * out.strides[d]
				idx[d] = lower[d]
			}
			if d < 1 {
				break
			}
		}
	}
}

// FoldFlat is the flat engine for a proven fold body. It runs on
// FoldExec's row driver with FoldExec's identity seeds, so the worker
// split and base-first combine order — and with them float results —
// are the closure path's bit for bit. A rank mismatch is returned
// with handled=true. handled=false defers to the closure path for
// leaves that fail verification, accumulators the typed lanes cannot
// hold (mixed int/float min-max folds, an int base with a float body)
// and infeasible loads.
func FoldFlat(kind FoldKind, base any, lower, upper []int, env *WithEnv, x Exec) (any, bool, error) {
	if len(lower) != len(upper) {
		return nil, true, errFoldRank
	}
	if len(lower) == 0 {
		return base, true, nil
	}
	if !env.verify(len(lower)) {
		return nil, false, nil
	}
	ident, err := foldIdentity(kind, base)
	if err != nil {
		return nil, false, nil
	}
	switch b := base.(type) {
	case int64:
		// An int base with a float body would promote mid-fold; the VM
		// pre-promotes the base when the static type is float, so this
		// only happens in corners the closure path owns.
		if !env.Float {
			return flatFold(kind, b, ident.(int64), lower, upper, env, x)
		}
	case float64:
		// Boxed min/max keep the winning operand's dynamic type; a
		// typed float accumulator cannot.
		if env.Float || (kind != FoldMin && kind != FoldMax) {
			return flatFold(kind, b, ident.(float64), lower, upper, env, x)
		}
	}
	return nil, false, nil
}

// flatFold folds a verified body into a typed accumulator through
// foldRows. A whole-matrix single-load body reduces contiguous row
// slices; any other body is evaluated per cell along the box odometer.
// Both combine in ascending element order within a row.
func flatFold[T int64 | float64](kind FoldKind, base, ident T, lower, upper []int, env *WithEnv, x Exec) (any, bool, error) {
	for d := range lower {
		if upper[d] <= lower[d] {
			return base, true, nil
		}
	}
	if !env.feasible(lower, upper) {
		return nil, false, nil
	}
	rank := len(lower)
	var whole *Matrix
	if lp := matchSingleLoad(env.Code); lp != nil && !lp.i2f {
		m := env.Mats[lp.mat]
		match := m.Rank() == rank
		for d := 0; match && d < rank; d++ {
			if lp.perm[d] != d || lp.off[d] != 0 || lower[d] != 0 || upper[d] != m.shape[d] {
				match = false
			}
		}
		if match {
			whole = m
		}
	}
	rowLen := 1
	for d := 1; d < rank; d++ {
		rowLen *= upper[d] - lower[d]
	}
	newRow := func() func(i0 int, acc *T) error {
		e := newWithEval(env)
		idx := make([]int, rank)
		return func(i0 int, acc *T) error {
			a := *acc
			switch {
			case whole != nil && whole.elem == Int:
				for _, v := range whole.i[i0*rowLen : (i0+1)*rowLen] {
					a = combine(kind, a, T(v))
				}
			case whole != nil:
				for _, v := range whole.f[i0*rowLen : (i0+1)*rowLen] {
					a = combine(kind, a, T(v))
				}
			default:
				idx[0] = i0
				copy(idx[1:], lower[1:])
				for {
					if env.Float {
						a = combine(kind, a, T(e.evalF(idx)))
					} else {
						a = combine(kind, a, T(e.evalI(idx)))
					}
					d := rank - 1
					for ; d >= 1; d-- {
						idx[d]++
						if idx[d] < upper[d] {
							break
						}
						idx[d] = lower[d]
					}
					if d < 1 {
						break
					}
				}
			}
			*acc = a
			return nil
		}
	}
	seed := func() (T, error) { return ident, nil }
	merge := func(acc *T, part T) error { *acc = combine(kind, *acc, part); return nil }
	acc, err := foldRows(x, lower[0], upper[0], base, seed, newRow, merge)
	if err != nil {
		return nil, true, err
	}
	return acc, true, nil
}
