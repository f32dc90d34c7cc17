package perturb

// Fixtures of the package's own tests.

// Injectors reports how many background injector goroutines Start launches.
func (pl *RTPlan) Injectors() int { return len(pl.injectors) }
