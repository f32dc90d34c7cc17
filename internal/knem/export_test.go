package knem

// Fixtures of the package's own tests.

// Cookies reports the number of live registrations (leak checking).
func (k *Module) Cookies() int { return len(k.cookies) }
