// Package perturb is the deterministic perturbation and fault-injection
// layer: a registry of named perturbation kinds (mirroring the LMT, engine
// and experiment registries) that both comm engines honor. A perturbation
// spec names a kind plus key=value parameters; a job carries a list of
// specs and a seed, and each engine installs them its own way:
//
//   - sim: perturbations are modeled — background Fluid load, scaled core
//     capacities, degraded/jittered network links, receiver posting delays
//     — all driven by counter-based RNG streams, so a fixed (spec, seed)
//     produces byte-identical simulations on every run and at any
//     worker-pool width.
//   - rt: perturbations are real — timed injector goroutines burning CPU
//     and memory bandwidth, wall-clock delays on receive posting and
//     cross-node sends — derived from the same seeded schedules.
//
// Perturbations may change timing, never semantics: the conformance-under-
// chaos gate (internal/comm) runs every conformance case under every
// registered kind on both engines and requires byte-correct delivery.
package perturb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"knemesis/internal/registry"
)

// Spec is one parsed perturbation: a registered kind name plus its
// key=value parameters (raw strings, validated against the kind's Param
// table). The zero Spec is invalid; build specs with ParseSpec.
type Spec struct {
	Kind string
	// params holds the explicitly set parameters (raw value strings).
	params map[string]string
}

// Param returns the raw value of an explicitly set parameter.
func (s Spec) Param(key string) (string, bool) {
	v, ok := s.params[key]
	return v, ok
}

// String renders the spec canonically: the kind name followed by the
// explicitly set parameters in sorted key order. ParseSpec(s.String())
// round-trips.
func (s Spec) String() string {
	if len(s.params) == 0 {
		return s.Kind
	}
	keys := make([]string, 0, len(s.params))
	for k := range s.params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Kind)
	for i, k := range keys {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.params[k])
	}
	return b.String()
}

// FormatList renders a spec list in the -perturb flag syntax (semicolon
// separated).
func FormatList(specs []Spec) string {
	parts := make([]string, len(specs))
	for i, sp := range specs {
		parts[i] = sp.String()
	}
	return strings.Join(parts, ";")
}

// Param describes one parameter of a perturbation kind. A Param is either
// numeric (Def/Min/Max govern) or an enumeration (Enum non-empty; Enum[0]
// is the default).
type Param struct {
	Key  string
	Help string
	Def  float64
	Min  float64
	Max  float64
	Enum []string
}

// Kind is one registered perturbation. Sim installs the modeled form onto
// a simulation, RT contributes the wall-clock form to an injection plan;
// either may be nil when the kind has no effect on that engine.
type Kind struct {
	Name  string
	Help  string
	Order int // presentation order in Kinds
	Param []Param

	Sim func(t *SimTarget, set *SimSet, in Inst) error
	RT  func(pl *RTPlan, in Inst) error
}

// Kinds is the perturbation kind registry, in presentation order.
var Kinds = registry.New("perturb", "kind", func(k Kind) (string, int) { return k.Name, k.Order })

// Inst is one validated perturbation instance bound to a job: the spec,
// the job seed and the spec's stream index (its position in the job's
// perturbation list — every instance draws from its own RNG stream, so
// adding a perturbation never reshuffles another's schedule).
type Inst struct {
	Spec   Spec
	Seed   uint64
	Stream uint64

	kind Kind
	vals map[string]float64
	strs map[string]string
}

// F returns the resolved numeric value of a parameter (explicit or
// default). Unknown keys are programmer errors.
func (in Inst) F(key string) float64 {
	v, ok := in.vals[key]
	if !ok {
		panic(fmt.Sprintf("perturb: kind %q has no numeric param %q", in.Spec.Kind, key))
	}
	return v
}

// S returns the resolved enum value of a parameter.
func (in Inst) S(key string) string {
	v, ok := in.strs[key]
	if !ok {
		panic(fmt.Sprintf("perturb: kind %q has no enum param %q", in.Spec.Kind, key))
	}
	return v
}

// resolve validates sp against its kind's parameter table and returns the
// resolved instance values.
func resolve(sp Spec) (Inst, error) {
	k, err := Kinds.Lookup(sp.Kind)
	if err != nil {
		return Inst{}, err
	}
	in := Inst{Spec: sp, kind: k,
		vals: make(map[string]float64), strs: make(map[string]string)}
	for _, p := range k.Param {
		if len(p.Enum) > 0 {
			in.strs[p.Key] = p.Enum[0]
		} else {
			in.vals[p.Key] = p.Def
		}
	}
	for key, raw := range sp.params {
		p, ok := paramOf(k, key)
		if !ok {
			return Inst{}, fmt.Errorf("perturb: %s: unknown param %q (have %s)",
				sp.Kind, key, strings.Join(paramKeys(k), "|"))
		}
		if len(p.Enum) > 0 {
			found := false
			for _, e := range p.Enum {
				if raw == e {
					found = true
					break
				}
			}
			if !found {
				return Inst{}, fmt.Errorf("perturb: %s: %s=%q not in %s",
					sp.Kind, key, raw, strings.Join(p.Enum, "|"))
			}
			in.strs[key] = raw
			continue
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return Inst{}, fmt.Errorf("perturb: %s: %s=%q is not a number", sp.Kind, key, raw)
		}
		if v < p.Min || v > p.Max {
			return Inst{}, fmt.Errorf("perturb: %s: %s=%v out of range [%v, %v]",
				sp.Kind, key, v, p.Min, p.Max)
		}
		in.vals[key] = v
	}
	return in, nil
}

func paramOf(k Kind, key string) (Param, bool) {
	for _, p := range k.Param {
		if p.Key == key {
			return p, true
		}
	}
	return Param{}, false
}

func paramKeys(k Kind) []string {
	out := make([]string, len(k.Param))
	for i, p := range k.Param {
		out[i] = p.Key
	}
	return out
}

// Instances validates a spec list against the registry and binds each spec
// to the job seed and its stream index.
func Instances(specs []Spec, seed uint64) ([]Inst, error) {
	out := make([]Inst, 0, len(specs))
	for i, sp := range specs {
		in, err := resolve(sp)
		if err != nil {
			return nil, err
		}
		in.Seed, in.Stream = seed, uint64(i)
		out = append(out, in)
	}
	return out, nil
}

// ParseSpec parses one "kind" or "kind:key=value,key=value" spec and
// validates it against the registry. It never panics on malformed input
// (fuzzed in parse_test.go).
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	name, rest, hasParams := strings.Cut(s, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return Spec{}, fmt.Errorf("perturb: empty spec")
	}
	sp := Spec{Kind: name}
	if hasParams {
		sp.params = make(map[string]string)
		for _, kv := range strings.Split(rest, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				return Spec{}, fmt.Errorf("perturb: %s: empty param in %q", name, rest)
			}
			key, val, ok := strings.Cut(kv, "=")
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			if !ok || key == "" || val == "" {
				return Spec{}, fmt.Errorf("perturb: %s: bad param %q (want key=value)", name, kv)
			}
			if _, dup := sp.params[key]; dup {
				return Spec{}, fmt.Errorf("perturb: %s: param %q set twice", name, key)
			}
			sp.params[key] = val
		}
	}
	if _, err := resolve(sp); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// ParseList parses a semicolon-separated spec list ("slow-core;link-jitter:
// mean=1e-5"). Empty segments are skipped, so a trailing semicolon is fine.
func ParseList(s string) ([]Spec, error) {
	var out []Spec
	for _, part := range strings.Split(s, ";") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		sp, err := ParseSpec(part)
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	return out, nil
}

// MustParse is ParseSpec for tests and tables of known-good specs.
func MustParse(s string) Spec {
	sp, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return sp
}
