package sim

// Hooks for the black-box engine contract tests (package sim_test) and
// fixtures of the package's own tests.

// SpawnAt creates a process that will begin executing fn at simulated time
// start (which must be >= now). The process counts as live until fn returns.
func (e *Engine) SpawnAt(start Time, name string, fn func(*Proc)) *Proc {
	return e.spawn(start, name, false, fn)
}

// Switches reports how many times a process was resumed by a goroutine
// switch (its start included): by the executor, or nested, by a parking
// process whose next event woke it. A process that finds its own wake-up
// next while parking is not switched to.
func (e *Engine) Switches() int { return e.switches }

// Dispatching reports whether p is parked resuming another process: an
// ancestor on the chain of processes resuming one another.
func (p *Proc) Dispatching() bool { return p.dispatching }

// WaitGoroutines fails the test unless the goroutine count returns to
// baseline.
var WaitGoroutines = waitGoroutines
