package sim

// Hooks for the black-box engine contract tests (package sim_test) and
// fixtures of the package's own tests.

// SpawnAt creates a process that will begin executing fn at simulated time
// start (which must be >= now). The process counts as live until fn returns.
func (e *Engine) SpawnAt(start Time, name string, fn func(*Proc)) *Proc {
	return e.spawn(start, name, false, fn)
}

// Switches reports how many times the executor has switched to a process
// (its start included).
func (e *Engine) Switches() int { return e.switches }

// WaitGoroutines fails the test unless the goroutine count returns to
// baseline.
var WaitGoroutines = waitGoroutines
