// Package registry is the one name table behind every "chosen by name"
// set of the tree: LMT backends, comm engines, experiments, perturbation
// kinds, cluster and machine presets, and benchmark drivers. Each owning
// package declares one package-level Registry value and fills it from its
// init functions; the CLIs, the daemon's spec validation and the help text
// all read the same table.
//
// Entries are kept sorted by (order, name) at registration time, never on
// a read, so once init has run the registry is read-only and safe to share
// across goroutines without a lock.
package registry

import (
	"fmt"
	"slices"
	"strings"
)

// Registry is an ordered table of named entries of type T.
type Registry[T any] struct {
	pkg, noun string
	key       func(T) (name string, order int)
	entries   []T      // sorted by (order, name)
	names     []string // names[i] is the name of entries[i]
}

// New returns an empty registry. pkg and noun only shape messages: a
// failed lookup reads `<pkg>: unknown <noun> "x" (have a|b|c)`. key
// returns an entry's name and its presentation order.
func New[T any](pkg, noun string, key func(T) (name string, order int)) *Registry[T] {
	return &Registry[T]{pkg: pkg, noun: noun, key: key}
}

// Register adds v at its (order, name) position. An empty or duplicate
// name panics: both are init-time programmer errors.
func (r *Registry[T]) Register(v T) {
	name, order := r.key(v)
	if name == "" {
		panic(fmt.Sprintf("%s: register %s with empty name", r.pkg, r.noun))
	}
	if slices.Contains(r.names, name) {
		panic(fmt.Sprintf("%s: %s %q registered twice", r.pkg, r.noun, name))
	}
	i := slices.IndexFunc(r.entries, func(e T) bool {
		n, o := r.key(e)
		return o > order || o == order && n > name
	})
	if i < 0 {
		i = len(r.entries)
	}
	r.entries = slices.Insert(r.entries, i, v)
	r.names = slices.Insert(r.names, i, name)
}

// Lookup returns the entry registered under name; the error lists every
// registered name in order.
func (r *Registry[T]) Lookup(name string) (T, error) {
	if i := slices.Index(r.names, name); i >= 0 {
		return r.entries[i], nil
	}
	var zero T
	return zero, fmt.Errorf("%s: unknown %s %q (have %s)", r.pkg, r.noun, name, strings.Join(r.names, "|"))
}

// All returns every entry in (order, name) order. The slice is the
// caller's own.
func (r *Registry[T]) All() []T { return slices.Clone(r.entries) }

// Names returns every registered name in (order, name) order. The slice is
// the caller's own.
func (r *Registry[T]) Names() []string { return slices.Clone(r.names) }
