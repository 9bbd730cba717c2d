// The trap layer: every failure escaping user-program execution — a
// matrix shape panic, an rc double-free, an allocation over budget, a
// blown step/depth budget, or an arbitrary panic in a with-loop,
// matrixMap or cilk spawn body — is converted into a *RuntimeError
// carrying the source span and a stable TrapCode. Long-lived services
// (cmserved) and CLIs (cmrun) dispatch on the code: the daemon maps it
// to a structured HTTP response and a metrics counter, the CLI to an
// exit code. Nothing a user program does may panic the process.
package interp

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/ast"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/rc"
)

// TrapCode classifies a runtime failure; codes are stable API for the
// server's trap responses and cmrun's exit codes.
type TrapCode string

// Trap codes.
const (
	// TrapNone marks an ordinary runtime error (bad index, type
	// mismatch, missing file) — diagnosable but not a crash class.
	TrapNone TrapCode = ""
	// TrapShape is an impossible matrix shape: negative dimension,
	// size overflow, or a kernel shape panic.
	TrapShape TrapCode = "shape"
	// TrapRC is a reference-counting invariant violation: double free,
	// use after free, negative count.
	TrapRC TrapCode = "rc"
	// TrapOOM is an allocation denied by the cell budget
	// (Options.MaxCells).
	TrapOOM TrapCode = "oom"
	// TrapStep is the interpreter step budget (Options.MaxSteps).
	TrapStep TrapCode = "step"
	// TrapDepth is the call-stack depth limit.
	TrapDepth TrapCode = "depth"
	// TrapPanic is any other panic recovered from execution.
	TrapPanic TrapCode = "panic"
)

// IsResource reports whether the trap is a resource-budget exhaustion
// (as opposed to a program fault); cmrun gives these their own exit
// code.
func (t TrapCode) IsResource() bool {
	return t == TrapOOM || t == TrapStep || t == TrapDepth
}

// classifyErr assigns a trap code to an error produced (or recovered)
// during execution. The typed errors of the runtime layers — matrix
// budget/shape errors, rc violations, pool panics — each map to a
// stable code; anything else recovered from a panic is TrapPanic.
func classifyErr(err error) TrapCode {
	var be *matrix.BudgetError
	if errors.As(err, &be) {
		return TrapOOM
	}
	var se *matrix.ShapeError
	if errors.As(err, &se) {
		return TrapShape
	}
	var rv *rc.Violation
	if errors.As(err, &rv) {
		return TrapRC
	}
	var pe *par.PanicError
	if errors.As(err, &pe) {
		if c := classifyPanicValue(pe.Value); c != TrapPanic {
			return c
		}
		return TrapPanic
	}
	return TrapNone
}

// classifyPanicValue assigns a trap code to a recovered panic value.
func classifyPanicValue(r any) TrapCode {
	if err, ok := r.(error); ok {
		if c := classifyErr(err); c != TrapNone {
			return c
		}
	}
	return TrapPanic
}

// trapErr builds a RuntimeError with an explicit trap code.
func trapErr(n ast.Node, code TrapCode, format string, args ...any) error {
	return &RuntimeError{Node: n, Trap: code, Err: fmt.Errorf(format, args...)}
}

// WrapError attaches a source node and trap classification to err,
// passing existing *RuntimeErrors through unchanged; exported for
// alternate execution engines.
func WrapError(n ast.Node, err error) error { return wrap(n, err) }

// Errorf builds an ordinary (untrapped) runtime error at n.
func Errorf(n ast.Node, format string, args ...any) error {
	return rerr(n, format, args...)
}

// Trapf builds a RuntimeError with an explicit trap code at n.
func Trapf(n ast.Node, code TrapCode, format string, args ...any) error {
	return trapErr(n, code, format, args...)
}

// Recovered converts a recovered panic value into a *RuntimeError;
// exported for alternate execution engines.
func Recovered(n ast.Node, r any) *RuntimeError { return recoveredError(n, r) }

// recoveredError converts a recovered panic value into a
// *RuntimeError, classifying typed runtime panics (rc violations,
// shape panics, pool panics) and capturing the stack for genuinely
// unexpected ones.
func recoveredError(n ast.Node, r any) *RuntimeError {
	if re, ok := r.(*RuntimeError); ok {
		return re
	}
	code := classifyPanicValue(r)
	var err error
	switch v := r.(type) {
	case *par.PanicError:
		// Keep the pool's attribution (worker id) but not the double
		// "panic in worker" prefix on re-wrap.
		err = v
	case error:
		err = v
	default:
		err = fmt.Errorf("panic: %v", v)
	}
	re := &RuntimeError{Node: n, Trap: code, Err: err}
	if code == TrapPanic {
		re.Stack = debug.Stack()
	}
	return re
}
