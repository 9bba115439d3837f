package routing

import (
	"testing"

	"dragonfly/internal/fault"
	"dragonfly/internal/topology"
)

// degradedView fails 10% of d's global channels (at least one) and one
// router.
func degradedView(t *testing.T, d topology.Machine, seed uint64) *topology.Degraded {
	t.Helper()
	plan := fault.NewPlan(seed)
	if plan.FailFraction(d, topology.ClassGlobal, 0.10) == 0 && plan.FailRandomChannels(d, topology.ClassGlobal, 1) == 0 {
		t.Fatalf("%v: the fault plan failed no global channel", d)
	}
	plan.FailRouter(d.Routers() / 2)
	return topology.NewDegraded(d, plan)
}

// TestBaseReadsMachineTable checks that every algorithm's base holds the
// machine's own path table and draws global channels from the right
// slot lists: the pristine pairs on a pristine machine, the view's live
// slots on a degraded one, and the current epoch's on a switched one,
// also after an epoch swap. The table's content is pinned in
// internal/topology (TestPathTableGolden).
func TestBaseReadsMachineTable(t *testing.T) {
	for _, f := range topology.Families.List() {
		m, err := topology.Build(f.Name, nil)
		if err != nil {
			t.Fatalf("Build(%s): %v", f.Name, err)
		}
		shares := func(b base) bool {
			return b.tab.Groups() == m.Paths().Groups() && b.tab.Pairs().Slots != nil &&
				&b.tab.Pairs().Slots[0] == &m.Paths().Pairs().Slots[0]
		}
		pristine := newBase(m)
		if !shares(pristine) || pristine.pairSlots() != pristine.tab.Pairs() {
			t.Errorf("%s: pristine routing does not read the machine's table", f.Name)
		}
		dg := degradedView(t, m, 3)
		if b := newBase(dg); !shares(b) || b.pairSlots() != dg.LiveSlots() {
			t.Errorf("%s: degraded routing does not read the view's live slots", f.Name)
		}
		sw := topology.NewSwitched(m)
		b := newBase(sw)
		if !shares(b) || b.pairSlots() != sw.LiveSlots() {
			t.Errorf("%s: switched routing does not read the first epoch's live slots", f.Name)
		}
		next := degradedView(t, m, 4)
		sw.SetEpoch(next)
		if b.pairSlots() != next.LiveSlots() {
			t.Errorf("%s: switched routing does not read the current epoch's live slots", f.Name)
		}
	}
}
