package main

import (
	"io"
	"strings"
	"testing"
)

// TestRunRejectsNegativeWorkers checks that a negative -workers fails flag
// validation before the daemon builds its server or listens, matching the
// other commands' -workers check.
func TestRunRejectsNegativeWorkers(t *testing.T) {
	// The out-of-range port makes a daemon that skipped the check fail at
	// listen time instead of serving forever; the error text tells the two
	// apart.
	err := run([]string{"-workers", "-1", "-addr", "127.0.0.1:-1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "workers must be >= 0") {
		t.Fatalf("run(-workers -1) = %v, want a workers validation error", err)
	}
}
