package core

import "fmt"

// ValidationError reports a configuration field that failed validation. It
// wraps a package sentinel (core.ErrConfig, sim.ErrConfig, …) so callers can
// match either coarsely with errors.Is(err, ErrConfig) or structurally with
// errors.As to read the offending Field and Reason.
type ValidationError struct {
	// Field names the Config field that failed (e.g. "BGProb").
	Field string
	// Reason explains the failure in human terms.
	Reason string

	sentinel error
}

// NewValidationError builds a ValidationError for a field, wrapping the given
// package sentinel. It is shared by the sibling packages (sim, serve, …) so
// every configuration error across the repo carries the same inspectable
// shape.
func NewValidationError(sentinel error, field, format string, args ...any) *ValidationError {
	return &ValidationError{
		Field:    field,
		Reason:   fmt.Sprintf(format, args...),
		sentinel: sentinel,
	}
}

// Error formats as "<sentinel>: <Field>: <Reason>", preserving the prefix
// style of the fmt.Errorf strings it replaced.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("%v: %s: %s", e.sentinel, e.Field, e.Reason)
}

// Unwrap exposes the package sentinel for errors.Is.
func (e *ValidationError) Unwrap() error { return e.sentinel }
