package workload

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"dragonfly/internal/sim"
)

// Tenant is one job sharing a machine under a MultiTenant workload: a
// named set of terminals driven by its own arrival process.
type Tenant struct {
	// Name labels the tenant in fingerprints and telemetry.
	Name string
	// Source is the tenant's arrival process; its per-terminal state is
	// indexed by absolute terminal id, so build it over the machine's
	// full terminal count.
	Source sim.Source
	// Terminals are the member terminals, ascending and disjoint from
	// every other tenant's.
	Terminals []int
	// Confined redirects pattern-deferred destinations (Arrive's
	// dst < 0) to a uniformly chosen other member of the same tenant —
	// the slice-placement model, where a job's traffic stays inside its
	// slice. Unconfined tenants defer to the network traffic pattern.
	Confined bool
}

// MultiTenant composes per-tenant sources over a partition of the
// machine's terminals, the workload model behind the multi-tenant
// interference exhibit: each job gets a slice of the machine (a
// group-aligned terminal range) and its own arrival process, and
// terminals outside every slice stay
// silent. Snapshot state is the union of the tenants' states, padded
// to the widest tenant.
type MultiTenant struct {
	tenants  []Tenant
	tenantOf []int32 // terminal -> tenant index, -1 when unassigned
	posOf    []int32 // terminal -> position in its tenant's member list
	words    int
	gated    bool
	fp       string
}

// NewMultiTenant builds a multi-tenant source over a machine with the
// given terminal count. Tenant terminal sets must be disjoint, sorted
// ascending and in range; a confined tenant needs at least two
// members.
func NewMultiTenant(terminals int, tenants []Tenant) (*MultiTenant, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("workload: multitenant needs at least one tenant")
	}
	m := &MultiTenant{
		tenants:  tenants,
		tenantOf: make([]int32, terminals),
		posOf:    make([]int32, terminals),
		gated:    true,
	}
	for t := range m.tenantOf {
		m.tenantOf[t] = -1
	}
	h := fnv.New64a()
	var fp strings.Builder
	fp.WriteString("multitenant[")
	for ti := range tenants {
		ten := &tenants[ti]
		if ten.Source == nil {
			return nil, fmt.Errorf("workload: tenant %q has no source", ten.Name)
		}
		if ten.Confined && len(ten.Terminals) < 2 {
			return nil, fmt.Errorf("workload: confined tenant %q needs at least 2 terminals, has %d", ten.Name, len(ten.Terminals))
		}
		if !sort.IntsAreSorted(ten.Terminals) {
			return nil, fmt.Errorf("workload: tenant %q terminals are not ascending", ten.Name)
		}
		for pos, t := range ten.Terminals {
			if t < 0 || t >= terminals {
				return nil, fmt.Errorf("workload: tenant %q terminal %d out of range [0,%d)", ten.Name, t, terminals)
			}
			if m.tenantOf[t] >= 0 {
				return nil, fmt.Errorf("workload: terminal %d belongs to both %q and %q",
					t, tenants[m.tenantOf[t]].Name, ten.Name)
			}
			m.tenantOf[t] = int32(ti)
			m.posOf[t] = int32(pos)
			fmt.Fprintf(h, "%d:%d\n", ti, t)
		}
		if w := ten.Source.StateWords(); w > m.words {
			m.words = w
		}
		g, ok := ten.Source.(interface{ LoadGated() bool })
		if !ok || !g.LoadGated() {
			m.gated = false
		}
		fmt.Fprintf(&fp, "%s:%s:confined=%t;", ten.Name, ten.Source.Fingerprint(), ten.Confined)
	}
	fmt.Fprintf(&fp, "members=%016x]", h.Sum64())
	m.fp = fp.String()
	return m, nil
}

// Name implements sim.Source.
func (m *MultiTenant) Name() string { return "multitenant" }

// Fingerprint implements sim.Source: tenant names, sub-source
// fingerprints, confinement and the exact member assignment all ride
// along.
func (m *MultiTenant) Fingerprint() string { return m.fp }

// LoadGated reports whether every tenant source is load-gated — only
// then may the engine skip the injection walk at zero load.
func (m *MultiTenant) LoadGated() bool { return m.gated }

// Arrive implements sim.Source: delegate to the owning tenant, then
// confine pattern-deferred destinations to the tenant's own slice.
func (m *MultiTenant) Arrive(t int, now int64, load float64, r *sim.RNG) (bool, int) {
	ti := m.tenantOf[t]
	if ti < 0 {
		return false, -1 // unassigned terminals stay silent
	}
	ten := &m.tenants[ti]
	fire, dst := ten.Source.Arrive(t, now, load, r)
	if !fire {
		return false, -1
	}
	if dst < 0 && ten.Confined {
		// Uniform over the slice, excluding self — the same skip-self
		// draw UniformRandom uses, over the member list.
		members := ten.Terminals
		k := int(r.Next() % uint64(len(members)-1))
		if k >= int(m.posOf[t]) {
			k++
		}
		dst = members[k]
	}
	return true, dst
}

// StateWords implements sim.Source: the widest tenant's word count
// (narrower tenants' words are zero-padded).
func (m *MultiTenant) StateWords() int { return m.words }

// SaveState implements sim.Source.
func (m *MultiTenant) SaveState(t int, out []uint64) {
	for i := range out {
		out[i] = 0
	}
	if ti := m.tenantOf[t]; ti >= 0 {
		src := m.tenants[ti].Source
		src.SaveState(t, out[:src.StateWords()])
	}
}

// LoadState implements sim.Source.
func (m *MultiTenant) LoadState(t int, in []uint64) error {
	ti := m.tenantOf[t]
	if ti < 0 {
		return nil
	}
	src := m.tenants[ti].Source
	return src.LoadState(t, in[:src.StateWords()])
}
