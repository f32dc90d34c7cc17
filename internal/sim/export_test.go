package sim

// Hooks for the black-box engine contract tests (package sim_test).

// Switches reports how many times the executor has switched to a process
// (its start included).
func (e *Engine) Switches() int { return e.switches }

// WaitGoroutines fails the test unless the goroutine count returns to
// baseline.
var WaitGoroutines = waitGoroutines
