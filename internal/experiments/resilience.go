package experiments

import (
	"fmt"

	"dragonfly/internal/core"
	"dragonfly/internal/fault"
	"dragonfly/internal/topology"
)

// resilienceFaultSeed makes the fault plans of the resilience exhibit
// reproducible: the same seed yields the same failed channels at every
// fraction, on every worker count.
const resilienceFaultSeed = 1

// failFractions are the x-axis of the resilience exhibit: the fraction
// of global channels failed.
func (s Scale) failFractions() []float64 {
	if s.Coarse {
		return []float64{0, 0.10, 0.20, 0.30}
	}
	return []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30}
}

// Resilience is the graceful-degradation exhibit (not a paper figure —
// the paper assumes pristine hardware): saturation throughput and
// low-load latency versus the fraction of failed global channels, MIN
// versus UGAL-L under uniform random traffic. Losing a global channel
// severs the only minimal path between a group pair, so MIN survives
// only through the fault-aware Valiant fallback, while UGAL's adaptive
// rule spreads load around the holes; the expected shape is UGAL
// degrading smoothly and MIN falling off a cliff as soon as a few
// percent of the cables die.
func Resilience(s Scale) ([]*Figure, error) {
	sys, err := s.evalSystem(16)
	if err != nil {
		return nil, err
	}
	algs := []core.Algorithm{core.AlgMIN, core.AlgUGALL}
	fracs := s.failFractions()

	thr := &Figure{
		ID: "Resilience (a)", Title: "Saturation throughput vs. failed global channels, UR traffic",
		XLabel: "failed fraction", YLabel: "max accepted load (flits/cycle/alive terminal)",
	}
	lat := &Figure{
		ID: "Resilience (b)", Title: "Low-load latency vs. failed global channels, UR traffic",
		XLabel: "failed fraction", YLabel: "avg latency (cycles) at the lowest swept load",
	}

	type point struct {
		satThr  float64
		lowLat  float64
		dropped int64
		conn    bool
	}
	njobs := len(algs) * len(fracs)
	pts := make([]point, njobs)
	err = s.Pool().ForEach(njobs, func(k int) error {
		alg := algs[k/len(fracs)]
		frac := fracs[k%len(fracs)]
		plan := fault.NewPlan(resilienceFaultSeed)
		plan.FailFraction(sys.Topo, topology.ClassGlobal, frac)
		fsys := sys.WithFaults(plan)
		points, err := fsys.SweepPoolW(s.Pool(), alg, ur, s.urLoads(), s.runCfg(), 2)
		if err != nil {
			return fmt.Errorf("%s at %.0f%% failed: %w", alg, 100*frac, err)
		}
		if len(points) == 0 {
			return fmt.Errorf("%s at %.0f%% failed: empty sweep", alg, 100*frac)
		}
		p := point{lowLat: points[0].Result.Latency.Mean(), conn: fsys.Degraded().Connected()}
		for _, pt := range points {
			if pt.Result.Accepted > p.satThr {
				p.satThr = pt.Result.Accepted
			}
			p.dropped += pt.Result.Dropped
		}
		pts[k] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	var droppedNote bool
	for i, alg := range algs {
		ts := Series{Name: string(alg)}
		ls := Series{Name: string(alg)}
		for j, frac := range fracs {
			p := pts[i*len(fracs)+j]
			ts.X = append(ts.X, frac)
			ts.Y = append(ts.Y, p.satThr)
			ls.X = append(ls.X, frac)
			ls.Y = append(ls.Y, p.lowLat)
			if p.dropped > 0 {
				droppedNote = true
				thr.Notes = append(thr.Notes, fmt.Sprintf("%s at %.0f%% failed: %d packets dropped (connected=%v)",
					alg, 100*frac, p.dropped, p.conn))
			}
		}
		thr.Series = append(thr.Series, ts)
		lat.Series = append(lat.Series, ls)
	}
	thr.Notes = append(thr.Notes,
		"expected shape: UGAL-L degrades smoothly with the surviving capacity; MIN cliffs as soon as group pairs lose their only minimal channel and must detour")
	if !droppedNote {
		thr.Notes = append(thr.Notes, "no packets dropped at any fraction: the degraded networks stayed connected within the routing fallback's reach")
	}
	return []*Figure{thr, lat}, nil
}
