package core

import (
	"fmt"

	"knemesis/internal/nemesis"
	"knemesis/internal/registry"
)

// Info describes a registered backend: help text, paper ordering, the
// capability requirements the factory checks centrally, and the option
// presets ("variants") the CLIs expose.
type Info struct {
	// Summary is one line of help text (CLI -lmt listings).
	Summary string

	// Order positions the backend in Names() — the order the paper's
	// tables list the strategies.
	Order int

	// NeedsKernel marks backends that require the OS substrate (pipes,
	// CMA syscalls) on the channel.
	NeedsKernel bool

	// NeedsKNEM marks backends that require a loaded KNEM module.
	NeedsKNEM bool

	// NeedsDMA reports whether the given configuration requires I/OAT DMA
	// hardware. Nil means the backend never touches the DMA engine.
	NeedsDMA func(Options) bool

	// Label renders the option-dependent experiment-table label; nil means
	// the plain backend name.
	Label func(Options) string

	// Variants are the named option presets derived from this backend.
	// A variant with empty Suffix is the bare backend name; a non-empty
	// Suffix registers "<name>-<suffix>" (e.g. knem-ioat-auto).
	Variants []Variant
}

// Variant is one named option preset of a backend, exposed by the CLIs.
type Variant struct {
	Suffix string
	Help   string
	Apply  func(*Options)
}

// Backend is one entry of the LMT registry.
type Backend struct {
	Name Kind
	Info Info
	New  func(ch *nemesis.Channel, opt Options) nemesis.LMT
}

// Backends is the LMT backend registry, in paper-table order.
var Backends = registry.New("core", "LMT backend", func(b *Backend) (string, int) {
	return string(b.Name), b.Info.Order
})

// Names returns every registered backend name in paper-table order.
func Names() []Kind {
	var out []Kind
	for _, b := range Backends.All() {
		out = append(out, b.Name)
	}
	return out
}

// CheckCaps verifies the backend's declared capability requirements against
// what the channel actually wires up. This is the single, central place
// backends' environmental preconditions are enforced (the per-case panics
// the Factory switch used to carry).
func (b *Backend) CheckCaps(ch *nemesis.Channel, opt Options) error {
	if b.Info.NeedsKernel && ch.OS == nil {
		return fmt.Errorf("core: %s LMT requires the kernel substrate", b.Name)
	}
	if b.Info.NeedsKNEM && ch.KNEM == nil {
		return fmt.Errorf("core: %s LMT requires a loaded KNEM module", b.Name)
	}
	if b.Info.NeedsDMA != nil && b.Info.NeedsDMA(opt) {
		if ch.KNEM == nil || !ch.KNEM.HasIOAT() {
			return fmt.Errorf("core: %s configuration %q requires DMA hardware", b.Name, opt.Label())
		}
	}
	return nil
}

// label renders the backend's table label for opt.
func (b *Backend) label(opt Options) string {
	if b.Info.Label != nil {
		return b.Info.Label(opt)
	}
	return string(b.Name)
}

// Spec is one named LMT configuration preset (backend x variant), the unit
// the CLIs' -lmt flag selects.
type Spec struct {
	Name    string
	Help    string
	Options Options
	order   int // backend order x 100 + variant index
}

// Presets is the -lmt preset registry (every backend x variant) in paper
// order: the generated source of -lmt help text and validation.
var Presets = registry.New("core", "LMT", func(s Spec) (string, int) {
	return s.Name, s.order
})

// register adds a backend to Backends and its variants to Presets; every
// backend file's init calls it.
func register(b *Backend) {
	Backends.Register(b)
	variants := b.Info.Variants
	if len(variants) == 0 {
		variants = []Variant{{}}
	}
	for i, v := range variants {
		name := string(b.Name)
		if v.Suffix != "" {
			name += "-" + v.Suffix
		}
		opt := Options{Kind: b.Name}
		if v.Apply != nil {
			v.Apply(&opt)
		}
		help := v.Help
		if help == "" {
			help = b.Info.Summary
		}
		Presets.Register(Spec{Name: name, Help: help, Options: opt, order: b.Info.Order*100 + i})
	}
}

// ParseSpec resolves a -lmt style preset name into Options.
func ParseSpec(name string) (Options, error) {
	s, err := Presets.Lookup(name)
	return s.Options, err
}
