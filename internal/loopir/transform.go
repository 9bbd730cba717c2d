// The user-directed transformations of §V. Each rewrites the loop
// nest in place of the targeted loop, exactly as described in the
// paper: split produces the Fig 10 structure (two nested loops with
// j → jout*K + jin substituted), vectorize and parallelize mark loops
// for the Fig 11 emission, reorder permutes a perfect nest, tile is
// the derived transformation (two splits and a reorder), and unroll
// replicates the body.
package loopir

import "fmt"

// Split replaces the loop indexed by index with an outer loop of
// name outer and an inner loop of name inner with trip count factor,
// substituting outer*factor + inner for the original index (Fig 10).
// When the trip count is not a constant multiple of factor, a scalar
// remainder loop over [Hi/factor*factor, Hi) follows the outer loop
// and runs the last Hi % factor iterations with the original index and
// body. That leaves an imperfect nest, which a later reorder or tile
// of an enclosing loop rejects rather than mis-compiles.
func Split(body []Stmt, index string, factor int64, inner, outer string) ([]Stmt, error) {
	if factor < 1 {
		return nil, fmt.Errorf("loopir: split factor must be positive, got %d", factor)
	}
	l := FindLoop(body, index)
	if l == nil {
		return nil, fmt.Errorf("loopir: split: no loop with index %q", index)
	}
	if ic, ok := l.Lo.(*IntConst); !ok || ic.V != 0 {
		return nil, fmt.Errorf("loopir: split requires a zero-based loop, %q starts at %s", index, l.Lo)
	}
	// j -> jout*factor + jin
	repl := B("+", B("*", V(outer), IC(factor)), V(inner))
	newBody := SubstBlock(l.Body, index, repl)
	innerLoop := &Loop{Index: inner, Lo: IC(0), Hi: IC(factor), Body: newBody,
		VectorLanes: 0}
	blocks := B("/", l.Hi, IC(factor))
	outerLoop := &Loop{Index: outer, Lo: IC(0), Hi: blocks,
		Body: []Stmt{innerLoop}, Parallel: l.Parallel}
	split := []Stmt{outerLoop}
	if hi, ok := l.Hi.(*IntConst); !ok || hi.V%factor != 0 {
		split = append(split, &Loop{Index: index, Lo: B("*", blocks, IC(factor)), Hi: l.Hi, Body: l.Body})
	}
	return replaceLoop(body, l, split), nil
}

// replaceLoop returns body with loop l replaced by stmts. The list
// holding l is rebuilt and stored back into its enclosing loop, if
// any; the result is nil when l is not in body.
func replaceLoop(body []Stmt, l *Loop, stmts []Stmt) []Stmt {
	for i, s := range body {
		if s == Stmt(l) {
			out := make([]Stmt, 0, len(body)-1+len(stmts))
			out = append(out, body[:i]...)
			out = append(out, stmts...)
			return append(out, body[i+1:]...)
		}
		if enc, ok := s.(*Loop); ok {
			if nb := replaceLoop(enc.Body, l, stmts); nb != nil {
				enc.Body = nb
				return body
			}
		}
	}
	return nil
}

// Vectorize marks the loop for 4-lane single-precision SSE emission
// (Fig 11). The loop must have a constant trip count divisible by the
// lane width — split provides exactly that.
func Vectorize(body []Stmt, index string) ([]Stmt, error) {
	l := FindLoop(body, index)
	if l == nil {
		return nil, fmt.Errorf("loopir: vectorize: no loop with index %q", index)
	}
	if n, ok := l.Hi.(*IntConst); !ok || n.V%4 != 0 {
		return nil, fmt.Errorf("loopir: vectorize requires a constant trip count divisible by 4; split %q by 4 first", index)
	}
	// Inner loops are allowed — they stay scalar over vector state, as
	// in Fig 11's time loop — but their bounds must not depend on the
	// vectorized index.
	var checkInner func(ss []Stmt) error
	checkInner = func(ss []Stmt) error {
		for _, s := range ss {
			if il, ok := s.(*Loop); ok {
				if exprUses(il.Lo, index) || exprUses(il.Hi, index) {
					return fmt.Errorf("loopir: vectorize: inner loop %q bounds depend on %q", il.Index, index)
				}
				if err := checkInner(il.Body); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := checkInner(l.Body); err != nil {
		return nil, err
	}
	l.VectorLanes = 4
	return body, nil
}

// Parallelize marks the loop for parallel execution (OpenMP pragma or
// pthread-pool dispatch in the emitted C).
func Parallelize(body []Stmt, index string) ([]Stmt, error) {
	l := FindLoop(body, index)
	if l == nil {
		return nil, fmt.Errorf("loopir: parallelize: no loop with index %q", index)
	}
	l.Parallel = true
	return body, nil
}

// Reorder permutes a perfectly nested chain of loops so that their
// indices appear in the given order, outermost first. The loops must
// form a perfect nest (each loop's body is exactly the next loop).
func Reorder(body []Stmt, order []string) ([]Stmt, error) {
	if len(order) < 2 {
		return nil, fmt.Errorf("loopir: reorder needs at least two indices")
	}
	// The outermost loop of the nest is whichever named loop appears
	// first in a pre-order walk (the names form one nest).
	named := map[string]bool{}
	for _, n := range order {
		named[n] = true
	}
	container, pos, outer := findFirstNamed(body, named)
	if outer == nil {
		return nil, fmt.Errorf("loopir: reorder: no loop with any of the indices %v", order)
	}
	var chain []*Loop
	cur := outer
	for {
		if !named[cur.Index] {
			return nil, fmt.Errorf("loopir: reorder: loop %q is not in the reorder list but sits inside the nest", cur.Index)
		}
		chain = append(chain, cur)
		if len(chain) == len(order) {
			break
		}
		if len(cur.Body) != 1 {
			return nil, fmt.Errorf("loopir: reorder requires a perfect loop nest; %q has %d statements", cur.Index, len(cur.Body))
		}
		next, ok := cur.Body[0].(*Loop)
		if !ok {
			return nil, fmt.Errorf("loopir: reorder requires a perfect loop nest under %q", cur.Index)
		}
		cur = next
	}
	byName := map[string]*Loop{}
	for _, l := range chain {
		if !named[l.Index] {
			return nil, fmt.Errorf("loopir: reorder: nest contains unnamed loop %q", l.Index)
		}
		byName[l.Index] = l
	}
	for _, n := range order {
		if byName[n] == nil {
			return nil, fmt.Errorf("loopir: reorder: no loop with index %q in the nest", n)
		}
	}
	innermostBody := chain[len(chain)-1].Body
	// Rebuild in the requested order, preserving each loop's own
	// bounds and flags.
	var rebuilt *Loop
	for k := len(order) - 1; k >= 0; k-- {
		src := byName[order[k]]
		nl := &Loop{Index: src.Index, Lo: src.Lo, Hi: src.Hi,
			Parallel: src.Parallel, VectorLanes: src.VectorLanes}
		if rebuilt == nil {
			nl.Body = innermostBody
		} else {
			nl.Body = []Stmt{rebuilt}
		}
		rebuilt = nl
	}
	container[pos] = rebuilt
	return body, nil
}

// exprUses reports whether e references name.
func exprUses(e Expr, name string) bool {
	switch e := e.(type) {
	case *VarRef:
		return e.Name == name
	case *Bin:
		return exprUses(e.L, name) || exprUses(e.R, name)
	case *Un:
		return exprUses(e.X, name)
	case *Load:
		return exprUses(e.Idx, name)
	case *CallE:
		for _, a := range e.Args {
			if exprUses(a, name) {
				return true
			}
		}
	case *Cond:
		return exprUses(e.C, name) || exprUses(e.T, name) || exprUses(e.F, name)
	}
	return false
}

// findFirstNamed returns the first loop (pre-order) whose index is in
// the named set — the outermost loop of the nest being reordered.
func findFirstNamed(body []Stmt, named map[string]bool) ([]Stmt, int, *Loop) {
	for i, s := range body {
		l, ok := s.(*Loop)
		if !ok {
			continue
		}
		if named[l.Index] {
			return body, i, l
		}
		if c, p, found := findFirstNamed(l.Body, named); found != nil {
			return c, p, found
		}
	}
	return nil, 0, nil
}

// Tile is the derived transformation of §V: "a transformation
// specification to tile two nested loops indexed by x and y can be
// specified as two splits and a reorder": split x into xin/xout,
// split y into yin/yout, then reorder to xout, yout, xin, yin.
func Tile(body []Stmt, x string, fx int64, y string, fy int64) ([]Stmt, error) {
	xin, xout := x+"in", x+"out"
	yin, yout := y+"in", y+"out"
	b, err := Split(body, x, fx, xin, xout)
	if err != nil {
		return nil, fmt.Errorf("loopir: tile: %w", err)
	}
	b, err = Split(b, y, fy, yin, yout)
	if err != nil {
		return nil, fmt.Errorf("loopir: tile: %w", err)
	}
	b, err = Reorder(b, []string{xout, yout, xin, yin})
	if err != nil {
		return nil, fmt.Errorf("loopir: tile: %w", err)
	}
	return b, nil
}

// Unroll replicates the loop body factor times, advancing the index;
// the trip count must be a constant multiple of the factor.
func Unroll(body []Stmt, index string, factor int64) ([]Stmt, error) {
	if factor < 1 {
		return nil, fmt.Errorf("loopir: unroll factor must be positive")
	}
	container, pos, l := findLoop(body, index)
	if l == nil {
		return nil, fmt.Errorf("loopir: unroll: no loop with index %q", index)
	}
	hi, ok := l.Hi.(*IntConst)
	if !ok || hi.V%factor != 0 {
		return nil, fmt.Errorf("loopir: unroll requires a constant trip count divisible by %d", factor)
	}
	lo, ok := l.Lo.(*IntConst)
	if !ok || lo.V != 0 {
		return nil, fmt.Errorf("loopir: unroll requires a zero-based loop")
	}
	base := B("*", V(index), IC(factor))
	var newBody []Stmt
	for k := int64(0); k < factor; k++ {
		idxExpr := Expr(base)
		if k > 0 {
			idxExpr = B("+", base, IC(k))
		}
		newBody = append(newBody, SubstBlock(l.Body, index, idxExpr)...)
	}
	container[pos] = &Loop{Index: index, Lo: IC(0), Hi: IC(hi.V / factor),
		Body: newBody, Parallel: l.Parallel}
	return body, nil
}
