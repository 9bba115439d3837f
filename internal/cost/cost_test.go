package cost

import (
	"math"
	"testing"
	"testing/quick"

	"dragonfly/internal/topology"
)

func TestCableModelsFigure2(t *testing.T) {
	// The two linear fits printed in Figure 2.
	if got := Electrical.CostPerGb(0); got != 2.16 {
		t.Errorf("electrical intercept = %v, want 2.16", got)
	}
	if got := Electrical.CostPerGb(10); math.Abs(got-16.16) > 1e-9 {
		t.Errorf("electrical at 10m = %v, want 16.16", got)
	}
	if got := Optical.CostPerGb(0); got != 9.7103 {
		t.Errorf("optical intercept = %v, want 9.7103", got)
	}
	// Optical has the higher fixed cost but lower slope.
	if Optical.Intercept <= Electrical.Intercept {
		t.Error("optical intercept should exceed electrical")
	}
	if Optical.Slope >= Electrical.Slope {
		t.Error("optical slope should be below electrical")
	}
	// Negative lengths clamp.
	if Electrical.CostPerGb(-5) != Electrical.CostPerGb(0) {
		t.Error("negative length not clamped")
	}
}

func TestCrossoverNearTenMetres(t *testing.T) {
	// Section 2: "the crossover point is at 10m" (the pure fit crossing
	// is ≈7.3 m; the paper quotes ≈10 m from the figure).
	x := Crossover(Electrical, Optical)
	if x < 5 || x > 12 {
		t.Errorf("crossover = %v m, want 5-12 m", x)
	}
	if Crossover(Electrical, Electrical) != -1 {
		t.Error("parallel models should report no crossover")
	}
}

func TestCheapestCableSwitchesTechnology(t *testing.T) {
	if CheapestCable(2) != Electrical.CostPerGb(2) {
		t.Error("short cables should be electrical")
	}
	if CheapestCable(30) != Optical.CostPerGb(30) {
		t.Error("long cables should be optical")
	}
	// Property: CheapestCable is monotone non-decreasing except at the
	// technology switch, and never exceeds either pure model.
	f := func(lRaw uint16) bool {
		l := float64(lRaw%1000) / 10
		c := CheapestCable(l)
		return c <= Electrical.CostPerGb(l)+1e-9 || c <= Optical.CostPerGb(l)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTable1(t *testing.T) {
	techs := Table1()
	if len(techs) != 3 {
		t.Fatalf("Table1 has %d rows, want 3", len(techs))
	}
	optical := 0
	for _, tech := range techs {
		if tech.Name == "" || tech.MaxLengthM <= 0 || tech.DataRateGbps <= 0 {
			t.Errorf("bad row %+v", tech)
		}
		if tech.Optical {
			optical++
			if tech.EnergyPJPerBit < 50 {
				t.Errorf("optical cable %s energy %v, want >= 50 pJ/bit", tech.Name, tech.EnergyPJPerBit)
			}
		}
	}
	if optical != 2 {
		t.Errorf("want 2 optical rows, got %d", optical)
	}
}

func TestRouterModelAmortisesChipCost(t *testing.T) {
	rm := DefaultRouterModel()
	if rm.PerPort(7) <= rm.PerPort(64) {
		t.Error("low-radix per-port cost must exceed high-radix")
	}
	if rm.PerPort(0) != rm.PerPort(1) {
		t.Error("radix clamp failed")
	}
}

func TestLayoutValidate(t *testing.T) {
	bad := []Layout{
		{NodesPerCabinet: 0, CabinetPitchM: 1, CableOverheadM: 1, BackplaneM: 1},
		{NodesPerCabinet: 1, CabinetPitchM: 0, CableOverheadM: 1, BackplaneM: 1},
		{NodesPerCabinet: 1, CabinetPitchM: 1, CableOverheadM: -1, BackplaneM: 1},
		{NodesPerCabinet: 1, CabinetPitchM: 1, CableOverheadM: 1, BackplaneM: 0},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: invalid layout accepted", i)
		}
	}
	if err := DefaultLayout().Validate(); err != nil {
		t.Errorf("default layout rejected: %v", err)
	}
}

func TestLayoutDistances(t *testing.T) {
	l := DefaultLayout()
	if m := l.MeanPairDistanceM(1); m != l.BackplaneM {
		t.Errorf("single-cabinet mean %v", m)
	}
	mean := l.MeanPairDistanceM(16)
	if mean <= l.CableOverheadM || mean > 6*l.CabinetPitchM+l.CableOverheadM {
		t.Errorf("mean pair distance %v out of range", mean)
	}
}

func TestLayoutMachineDimensionGrows(t *testing.T) {
	l := DefaultLayout()
	prev := 0.0
	for _, n := range []int{256, 1024, 4096, 16384, 65536} {
		e := l.MachineDimensionM(n)
		if e < prev {
			t.Errorf("machine dimension shrank at N=%d", n)
		}
		prev = e
	}
}

func TestDragonflyCostBreakdown(t *testing.T) {
	m := DefaultModel()
	b, err := m.Dragonfly(16384)
	if err != nil {
		t.Fatalf("Dragonfly: %v", err)
	}
	if b.Nodes < 16384 {
		t.Errorf("sized %d nodes, want >= 16384", b.Nodes)
	}
	if b.GlobalChannels == 0 || b.LocalChannels == 0 || b.TerminalChannels != b.Nodes {
		t.Errorf("bad channel inventory: %+v", b)
	}
	// Balanced dragonfly: 0.5 global channels per node.
	perNode := float64(b.GlobalChannels) / float64(b.Nodes)
	if math.Abs(perNode-0.5) > 0.01 {
		t.Errorf("global channels per node = %v, want 0.5", perNode)
	}
	if b.Total() <= 0 || b.PerNode() <= 0 {
		t.Error("non-positive cost")
	}
	sum := b.RouterCost + b.TerminalCost + b.LocalCost + b.GlobalCost
	if math.Abs(sum-b.Total()) > 1e-9 {
		t.Error("Total() does not match the sum of parts")
	}
}

func TestDragonflyCostErrors(t *testing.T) {
	m := DefaultModel()
	if _, err := m.DragonflyConfig(100, 0, 16, 16); err == nil {
		t.Error("p=0 accepted")
	}
	// More nodes than a*h+1 groups can hold.
	if _, err := m.DragonflyConfig(10_000_000, 16, 16, 16); err == nil {
		t.Error("oversized machine accepted")
	}
	bad := m
	bad.Layout.CabinetPitchM = 0
	if _, err := bad.Dragonfly(4096); err == nil {
		t.Error("invalid layout accepted")
	}
}

func TestSmallDragonflyEqualsFlattenedButterfly(t *testing.T) {
	// Section 5: below ~1K nodes the dragonfly is a 1-D flattened
	// butterfly and costs exactly the same.
	m := DefaultModel()
	df, err := m.Dragonfly(512)
	if err != nil {
		t.Fatalf("Dragonfly: %v", err)
	}
	if df.GlobalChannels != 0 {
		t.Errorf("512-node dragonfly has %d global channels, want 0", df.GlobalChannels)
	}
	if df.Routers != 32 {
		t.Errorf("Routers = %d, want 32", df.Routers)
	}
}

func TestFigure19Ordering(t *testing.T) {
	// The headline of Figure 19: for large machines,
	// dragonfly < flattened butterfly < folded Clos < 3-D torus.
	m := DefaultModel()
	for _, n := range []int{8192, 16384, 65536} {
		df, err := m.Dragonfly(n)
		if err != nil {
			t.Fatalf("Dragonfly(%d): %v", n, err)
		}
		fb, err := m.FlattenedButterfly(n)
		if err != nil {
			t.Fatalf("FlattenedButterfly(%d): %v", n, err)
		}
		fc, err := m.FoldedClos(n)
		if err != nil {
			t.Fatalf("FoldedClos(%d): %v", n, err)
		}
		tor, err := m.Torus3D(n)
		if err != nil {
			t.Fatalf("Torus3D(%d): %v", n, err)
		}
		if !(df.PerNode() <= fb.PerNode() && fb.PerNode() < fc.PerNode() && fc.PerNode() < tor.PerNode()) {
			t.Errorf("N=%d: ordering violated: df=%.2f fb=%.2f clos=%.2f torus=%.2f",
				n, df.PerNode(), fb.PerNode(), fc.PerNode(), tor.PerNode())
		}
	}
}

func TestFigure19Savings(t *testing.T) {
	// Shape targets: noticeable savings vs the flattened butterfly at
	// 64K (paper: ~20%), >40% vs the folded Clos, and >60% vs the torus.
	m := DefaultModel()
	df, _ := m.Dragonfly(65536)
	fb, _ := m.FlattenedButterfly(65536)
	fc, _ := m.FoldedClos(65536)
	tor, _ := m.Torus3D(65536)
	if s := 1 - df.PerNode()/fb.PerNode(); s < 0.10 {
		t.Errorf("dragonfly saves only %.0f%% vs flattened butterfly at 64K, want >= 10%%", s*100)
	}
	if s := 1 - df.PerNode()/fc.PerNode(); s < 0.35 {
		t.Errorf("dragonfly saves only %.0f%% vs folded Clos at 64K, want >= 35%%", s*100)
	}
	if s := 1 - df.PerNode()/tor.PerNode(); s < 0.60 {
		t.Errorf("dragonfly saves only %.0f%% vs torus at 64K, want >= 60%%", s*100)
	}
}

func TestFigure18Comparison(t *testing.T) {
	m := DefaultModel()
	c, err := m.CompareAt64K()
	if err != nil {
		t.Fatalf("CompareAt64K: %v", err)
	}
	// The flattened butterfly needs ~2x the global cables of the
	// dragonfly at 64K.
	if c.GlobalCableRatio < 1.7 || c.GlobalCableRatio > 2.1 {
		t.Errorf("global cable ratio = %v, want ~2", c.GlobalCableRatio)
	}
	// And spends roughly half its router ports on global channels,
	// versus the dragonfly's roughly a third (25% on radix-64 parts).
	if c.FBGlobalPortShare < 0.4 || c.FBGlobalPortShare > 0.55 {
		t.Errorf("FB global port share = %v, want ~0.5", c.FBGlobalPortShare)
	}
	if c.DFGlobalPortShare >= c.FBGlobalPortShare {
		t.Error("dragonfly should spend a smaller port share on global channels")
	}
}

func TestTable2Shapes(t *testing.T) {
	rows := Table2()
	if len(rows) != 2 {
		t.Fatalf("Table2 rows = %d", len(rows))
	}
	fb, df := rows[0], rows[1]
	if fb.MinHopsGlobal != 2 || df.MinHopsGlobal != 1 {
		t.Error("minimal global hops: fb should be 2, dragonfly 1")
	}
	if df.AvgCableE <= fb.AvgCableE {
		t.Error("dragonfly trades longer cables (avg 2E/3 vs E/3)")
	}
	if df.MaxCableE != 2 || fb.MaxCableE != 1 {
		t.Error("max cable lengths should be 2E and E")
	}
}

func TestCostMonotoneInNodes(t *testing.T) {
	// Total cost must grow with machine size for every topology.
	m := DefaultModel()
	type fn func(int) (Breakdown, error)
	for name, f := range map[string]fn{
		"dragonfly": m.Dragonfly,
		"fb":        m.FlattenedButterfly,
		"clos":      m.FoldedClos,
		"torus":     m.Torus3D,
	} {
		prev := 0.0
		for _, n := range []int{2048, 4096, 8192, 16384, 32768, 65536} {
			b, err := f(n)
			if err != nil {
				t.Fatalf("%s(%d): %v", name, n, err)
			}
			if b.Total() < prev {
				t.Errorf("%s: total cost shrank at N=%d", name, n)
			}
			prev = b.Total()
		}
	}
}

func TestFoldedClosLevelsRaiseCost(t *testing.T) {
	// Crossing a level boundary (2048 -> 2049 nodes with k=64) adds a
	// whole level of channels: per-node cost must jump.
	m := DefaultModel()
	two, err := m.FoldedClos(2048)
	if err != nil {
		t.Fatal(err)
	}
	three, err := m.FoldedClos(4096)
	if err != nil {
		t.Fatal(err)
	}
	if three.PerNode() <= two.PerNode() {
		t.Errorf("3-level Clos per-node cost %v should exceed 2-level %v", three.PerNode(), two.PerNode())
	}
}

// TestMachineCostMatchesDragonflyConfig: pricing a built canonical
// dragonfly through the generic Machine path must agree with the
// analytic DragonflyConfig path on every census and cost component —
// the generic path reads the Descriptor, the analytic one closed
// forms, and the conformance suite ties Descriptor to the wiring.
func TestMachineCostMatchesDragonflyConfig(t *testing.T) {
	m := DefaultModel()
	d, err := topology.NewDragonfly(16, 16, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Machine(d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.DragonflyConfig(d.Nodes(), 16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != want.Nodes || got.Routers != want.Routers || got.RouterRadix != want.RouterRadix {
		t.Errorf("structure mismatch: Machine %+v vs DragonflyConfig %+v", got, want)
	}
	if got.LocalChannels != want.LocalChannels || got.GlobalChannels != want.GlobalChannels || got.TerminalChannels != want.TerminalChannels {
		t.Errorf("census mismatch: Machine %d/%d/%d vs DragonflyConfig %d/%d/%d",
			got.TerminalChannels, got.LocalChannels, got.GlobalChannels,
			want.TerminalChannels, want.LocalChannels, want.GlobalChannels)
	}
	if diff := got.Total() - want.Total(); diff < -1e-6 || diff > 1e-6 {
		t.Errorf("total cost mismatch: Machine %.4f vs DragonflyConfig %.4f", got.Total(), want.Total())
	}
}

// TestMachineCostNonUniformRadix: a Dragonfly+ machine's router cost
// must charge only the ports each router actually has, not
// routers x max radix.
func TestMachineCostNonUniformRadix(t *testing.T) {
	m := DefaultModel()
	dp, err := topology.NewDragonflyPlus(2, 4, 4, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Machine(dp)
	if err != nil {
		t.Fatal(err)
	}
	ports := 0
	for r := 0; r < dp.Routers(); r++ {
		ports += dp.Radix(r)
	}
	if ports >= dp.Routers()*dp.RouterRadix() {
		t.Fatalf("test machine is uniform (ports=%d, routers*radix=%d); pick an asymmetric one",
			ports, dp.Routers()*dp.RouterRadix())
	}
	want := float64(ports) * m.Router.PerPort(dp.RouterRadix())
	if diff := got.RouterCost - want; diff < -1e-6 || diff > 1e-6 {
		t.Errorf("router cost %.4f, want per-actual-port %.4f", got.RouterCost, want)
	}
}
