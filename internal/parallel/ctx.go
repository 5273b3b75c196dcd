package parallel

import (
	"fmt"
	"runtime/debug"
)

// This file is the robustness surface of the sweep engine: the error
// type a contained task panic converts into, and the error a
// best-effort grid reports when it keeps a partially completed sweep
// instead of discarding it — the behavior a production service wants
// when one projection out of hundreds dies or a request deadline fires
// mid-sweep.

// PanicError is a task panic contained by the sweep engine. It names
// the grid index so a failing point in a hundreds-wide grid is
// identifiable, and carries the panicking goroutine's stack for the
// report.
type PanicError struct {
	// Index is the grid index of the panicking task.
	Index int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack, captured at recover.
	Stack []byte
}

func newPanicError(index int, value any) *PanicError {
	return &PanicError{Index: index, Value: value, Stack: debug.Stack()}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", e.Index, e.Value)
}

// PartialError reports a best-effort sweep that stopped before
// completing every task. The points [0, Done) are the contiguous
// prefix that completed; a caller that back-fills the rest says so
// alongside it.
type PartialError struct {
	// Cause is why the sweep stopped: the lowest-index task error
	// (possibly a *PanicError), or the context's error when the sweep
	// was canceled or deadlined with no task failure.
	Cause error
	// Done is the length of the completed prefix.
	Done int
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("parallel: sweep incomplete (%d tasks done): %v", e.Done, e.Cause)
}

// Unwrap exposes Cause to errors.Is/errors.As, so callers can test for
// context.Canceled, context.DeadlineExceeded or *PanicError through a
// PartialError.
func (e *PartialError) Unwrap() error { return e.Cause }
