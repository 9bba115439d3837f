// Package registry is the one spelling rule behind every family choice
// the repository exposes: topologies, traffic patterns and arrival
// processes. A family is a name, a doc line, an integer parameter
// schema and a builder; a (name, parameters) spelling resolves to the
// family plus its fully-defaulted parameter map. The CLIs, core's
// Workload and the job service's hash all canonicalise through Resolve,
// so two spellings that mean the same thing build — and hash — the
// same.
package registry

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Param describes one integer parameter of a family.
type Param struct {
	// Name is the parameter key.
	Name string `json:"name"`
	// Doc is a one-line description.
	Doc string `json:"doc"`
	// Default is the value used when the key is omitted.
	Default int `json:"default"`
}

// Family is one registered family. B is the package's build function
// type, which takes the complete parameter map Resolve returns.
type Family[B any] struct {
	// Name is the registry key, lower-case.
	Name string `json:"name"`
	// Doc is a one-line description of the family.
	Doc string `json:"doc"`
	// Params is the parameter schema, in canonical order.
	Params []Param `json:"params"`
	// Build constructs an instance from a complete parameter map.
	Build B `json:"-"`
}

// Set is an ordered registry of families of one kind ("topology",
// "traffic", "workload"); the kind prefixes its error messages.
type Set[B any] struct {
	kind string
	fams []Family[B]
}

// New returns the set of families, in listing order.
func New[B any](kind string, families []Family[B]) Set[B] {
	return Set[B]{kind: kind, fams: families}
}

// List returns the families in listing order. The slice is a copy; the
// Family values share the registry's immutable schema slices.
func (s Set[B]) List() []Family[B] { return slices.Clone(s.fams) }

// Names returns the family names in listing order.
func (s Set[B]) Names() []string {
	names := make([]string, len(s.fams))
	for i, f := range s.fams {
		names[i] = f.Name
	}
	return names
}

// Resolve looks name up, folding case, and returns the family with its
// complete parameter map: the schema defaults with params laid on top.
// A nil params map resolves to the defaults. Unknown keys are rejected
// with the valid set in the error; the family is still returned then,
// so a caller can order its own checks before that one.
func (s Set[B]) Resolve(name string, params map[string]int) (Family[B], map[string]int, error) {
	lower := strings.ToLower(name)
	i := slices.IndexFunc(s.fams, func(f Family[B]) bool { return f.Name == lower })
	if i < 0 {
		return Family[B]{}, nil, fmt.Errorf("%s: unknown family %q (supported: %v)", s.kind, name, s.Names())
	}
	f := s.fams[i]
	full := make(map[string]int, len(f.Params))
	valid := make([]string, len(f.Params))
	for i, p := range f.Params {
		full[p.Name] = p.Default
		valid[i] = p.Name
	}
	var unknown []string
	for k, v := range params {
		if _, ok := full[k]; !ok {
			unknown = append(unknown, k)
			continue
		}
		full[k] = v
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return f, nil, fmt.Errorf("%s: family %q: unknown parameter(s) %v (valid: %v)", s.kind, f.Name, unknown, valid)
	}
	return f, full, nil
}
