package experiments

import (
	"fmt"

	"dragonfly/internal/core"
	"dragonfly/internal/obs"
	"dragonfly/internal/sim"
	"dragonfly/internal/workload"
)

// mtLoad is the offered load of every tenant scenario: the steady
// tenant runs at it continuously, the bursty tenant averages to it over
// its ON/OFF cycle (so its ON intensity is 3x).
const mtLoad = 0.3

// mtOn and mtOff are the bursty tenant's mean dwell times. With
// off = 2*on the ON bursts offer 0.6 flits/cycle/terminal — well above
// the steady tenant's rate but below saturation, so interference shows
// up as latency, not as a collapsed sweep.
const (
	mtOn  = 100
	mtOff = 200
)

// MultiTenant is the slice-placement interference exhibit (not a paper
// figure — the paper simulates one job at a time): two tenants share
// the evaluation machine under group-aligned slice placement, each
// tenant owning a contiguous range of whole groups. Tenant A drives
// steady Bernoulli traffic from the first third of the groups; tenant B
// drives ON/OFF bursty traffic from the second third; the last third is
// silent headroom. B runs either confined to its slice (deferred
// destinations redirected to slice members — the placement model) or
// spraying (deferred destinations fall through to machine-wide uniform
// random, crossing A's groups).
//
// The machine-wide mean mixes the two tenant populations — confined B
// concentrates its own traffic over its slice's global cables, spraying
// B enjoys the silent third — so the shared mean alone cannot attribute
// interference. The exhibit therefore also runs each tenant solo and
// reports the shared run's *excess* over the packet-weighted mix of the
// solo baselines: what sharing costs beyond what each job costs itself.
// Expected shape: confinement keeps the excess near zero (the jobs'
// minimal paths touch disjoint routers and cables; only adaptive
// non-minimal detours leak across slices), spraying buys B cheap paths
// at the price of a visible shared excess, and the windowed latency
// breathes with B's ON/OFF duty cycle either way.
func MultiTenant(s Scale) ([]*Figure, error) {
	sys, err := s.evalSystem(16)
	if err != nil {
		return nil, err
	}
	// Group-aligned slices: terminals are contiguous per group
	// (t -> group t/(p*a)), so a slice of whole groups is a contiguous
	// terminal range.
	perGroup := 4 * 8
	if s.Small {
		perGroup = 2 * 4
	}
	terminals := sys.Topo.Nodes()
	groups := terminals / perGroup
	sliceA := groupRange(0, groups/3, perGroup)
	sliceB := groupRange(groups/3, 2*groups/3, perGroup)

	type scenario struct {
		name    string
		tenants func() ([]workload.Tenant, error)
	}
	bursty := func() (sim.Source, error) {
		return workload.NewOnOff(terminals, mtOn, mtOff, false)
	}
	tenantA := func() workload.Tenant {
		return workload.Tenant{Name: "steady", Source: sim.DefaultSource(), Terminals: sliceA, Confined: true}
	}
	tenantB := func(confined bool) (workload.Tenant, error) {
		b, err := bursty()
		if err != nil {
			return workload.Tenant{}, err
		}
		return workload.Tenant{Name: "bursty", Source: b, Terminals: sliceB, Confined: confined}, nil
	}
	// The first three scenarios are the figure series; the two solo-B
	// runs feed only the interference accounting in the notes.
	scenarios := []scenario{
		{"A alone", func() ([]workload.Tenant, error) {
			return []workload.Tenant{tenantA()}, nil
		}},
		{"A+B confined", func() ([]workload.Tenant, error) {
			b, err := tenantB(true)
			if err != nil {
				return nil, err
			}
			return []workload.Tenant{tenantA(), b}, nil
		}},
		{"A+B spraying", func() ([]workload.Tenant, error) {
			b, err := tenantB(false)
			if err != nil {
				return nil, err
			}
			return []workload.Tenant{tenantA(), b}, nil
		}},
		{"B alone confined", func() ([]workload.Tenant, error) {
			b, err := tenantB(true)
			if err != nil {
				return nil, err
			}
			return []workload.Tenant{b}, nil
		}},
		{"B alone spraying", func() ([]workload.Tenant, error) {
			b, err := tenantB(false)
			if err != nil {
				return nil, err
			}
			return []workload.Tenant{b}, nil
		}},
	}

	window := int64(s.Measure) / 8
	if window < 10 {
		window = 10
	}
	horizon := int64(s.Warmup + s.Measure)

	lat := &Figure{
		ID: "MultiTenant (a)", Title: fmt.Sprintf("Packet latency under shared slice placement (%d groups: A steady UR, B ON/OFF %d/%d, last third silent), UGAL-L at %.2f load", groups, mtOn, mtOff, mtLoad),
		XLabel: "cycle", YLabel: "avg latency of packets ejected in window (cycles)",
	}
	thr := &Figure{
		ID: "MultiTenant (b)", Title: "Accepted throughput through the same scenarios (machine-wide, silent third included)",
		XLabel: "cycle", YLabel: "accepted load per window (flits/cycle/terminal)",
	}

	type mtOut struct {
		x, lat, thr []float64
		mean        float64
		count       int64
	}
	out := make([]mtOut, len(scenarios))
	err = s.Pool().ForEach(len(scenarios), func(i int) error {
		var runErr error
		s.Pool().Work(func() {
			runErr = func() error {
				tenants, err := scenarios[i].tenants()
				if err != nil {
					return err
				}
				mt, err := workload.NewMultiTenant(terminals, tenants)
				if err != nil {
					return err
				}
				win := obs.NewWindows(obs.WindowsConfig{Width: window, Terminals: terminals})
				res, err := sys.RunW(core.AlgUGALL, core.Workload{Traffic: "ur"}, mtLoad, s.runCfg(),
					core.WithSource(mt), core.WithCollector(win))
				if err != nil {
					return err
				}
				for _, w := range win.Windows() {
					if w.End > horizon {
						break // drain-phase tail: no injection, not part of the series
					}
					out[i].x = append(out[i].x, float64(w.End))
					out[i].lat = append(out[i].lat, w.LatencyMean)
					out[i].thr = append(out[i].thr, w.Accepted)
				}
				out[i].mean = res.Latency.Mean()
				out[i].count = res.Latency.Count()
				return nil
			}()
		})
		if runErr != nil {
			return fmt.Errorf("%s: %w", scenarios[i].name, runErr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for i, sc := range scenarios[:3] {
		lat.Series = append(lat.Series, Series{Name: sc.name, X: out[i].x, Y: out[i].lat})
		thr.Series = append(thr.Series, Series{Name: sc.name, X: out[i].x, Y: out[i].thr})
	}
	// Interference accounting: the shared run's mean against the
	// packet-weighted mix of the two solo baselines. Excess ≈ 0 means the
	// jobs did not slow each other beyond what each costs itself.
	mix := func(a, b mtOut) float64 {
		return (a.mean*float64(a.count) + b.mean*float64(b.count)) / float64(a.count+b.count)
	}
	confMix, sprayMix := mix(out[0], out[3]), mix(out[0], out[4])
	lat.Notes = append(lat.Notes, fmt.Sprintf(
		"solo means: A %.1f, B confined %.1f (slice-local UR concentrates over %d groups' cables), B spraying %.1f (machine-wide incl. the silent third)",
		out[0].mean, out[3].mean, len(sliceB)/perGroup, out[4].mean))
	lat.Notes = append(lat.Notes, fmt.Sprintf(
		"shared vs packet-weighted solo mix: confined %.2f vs %.2f (excess %+.1f%%), spraying %.2f vs %.2f (excess %+.1f%%)",
		out[1].mean, confMix, 100*(out[1].mean-confMix)/confMix,
		out[2].mean, sprayMix, 100*(out[2].mean-sprayMix)/sprayMix))
	lat.Notes = append(lat.Notes,
		"expected shape: confinement keeps the sharing excess near zero (disjoint minimal paths; only adaptive non-minimal detours leak across slices), spraying buys B cheap paths through idle groups at the price of a larger shared excess, and the windowed latency breathes with B's ON/OFF duty cycle either way")
	return []*Figure{lat, thr}, nil
}

// groupRange returns the terminals of groups [from, to), ascending.
func groupRange(from, to, perGroup int) []int {
	out := make([]int, 0, (to-from)*perGroup)
	for t := from * perGroup; t < to*perGroup; t++ {
		out = append(out, t)
	}
	return out
}
