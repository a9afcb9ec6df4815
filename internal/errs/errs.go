// Package errs defines the typed error taxonomy of the AutoFeat
// reproduction. Three sentinel errors classify every failure the online
// pipeline can hit, so callers branch with errors.Is instead of string
// matching:
//
//   - ErrBadInput — malformed or corrupt user input (a ragged CSV, a
//     mismatched bitmap, a missing column). One bad table prunes its own
//     join paths; it never kills the process.
//   - ErrBudgetExceeded — an enforceable resource budget ran out
//     (Config.MaxEvalJoins). The run degrades to a
//     partial result rather than failing.
//   - ErrCancelled — the run's context was cancelled or its deadline
//     (Config.Timeout) expired. Like budgets, cancellation degrades to a
//     partial result.
//
// The constructors wrap a sentinel together with an optional cause, so
// errors.Is matches both the taxonomy sentinel and the underlying error
// (e.g. context.DeadlineExceeded) through one chain.
package errs

import (
	"errors"
	"fmt"
)

// Sentinel errors of the taxonomy. Match with errors.Is; they are
// re-exported at the root package as autofeat.ErrBadInput,
// autofeat.ErrBudgetExceeded and autofeat.ErrCancelled.
var (
	// ErrBadInput classifies malformed or corrupt user input.
	ErrBadInput = errors.New("autofeat: bad input")
	// ErrBudgetExceeded classifies an exhausted time/row/join budget.
	ErrBudgetExceeded = errors.New("autofeat: budget exceeded")
	// ErrCancelled classifies context cancellation or deadline expiry.
	ErrCancelled = errors.New("autofeat: cancelled")
)

// taxonomyError carries a sentinel classification, a fully formatted
// message and an optional cause. Unwrap returns both, so errors.Is
// matches the sentinel and the cause through the same chain.
type taxonomyError struct {
	sentinel error
	msg      string // already includes the cause text when present
	cause    error
}

// Error implements the error interface.
func (e *taxonomyError) Error() string { return e.msg }

// Unwrap exposes the sentinel and (when present) the cause to errors.Is
// and errors.As.
func (e *taxonomyError) Unwrap() []error {
	if e.cause != nil {
		return []error{e.sentinel, e.cause}
	}
	return []error{e.sentinel}
}

// BadInput returns an ErrBadInput-classified error with a formatted
// message. A trailing %w verb in format wraps a cause as usual.
func BadInput(format string, args ...any) error {
	return classify(ErrBadInput, format, args...)
}

// BudgetExceeded returns an ErrBudgetExceeded-classified error with a
// formatted message.
func BudgetExceeded(format string, args ...any) error {
	return classify(ErrBudgetExceeded, format, args...)
}

// Cancelled returns an ErrCancelled-classified error wrapping cause
// (typically ctx.Err(), so errors.Is also matches context.Canceled or
// context.DeadlineExceeded). A nil cause yields the bare classification.
func Cancelled(cause error) error {
	msg := "autofeat: run cancelled"
	if cause != nil {
		msg += ": " + cause.Error()
	}
	return &taxonomyError{sentinel: ErrCancelled, msg: msg, cause: cause}
}

// classify builds a taxonomyError from a sentinel and an fmt-style
// message, preserving any error wrapped via %w as the cause.
func classify(sentinel error, format string, args ...any) error {
	formatted := fmt.Errorf(format, args...)
	return &taxonomyError{sentinel: sentinel, msg: formatted.Error(), cause: errors.Unwrap(formatted)}
}
