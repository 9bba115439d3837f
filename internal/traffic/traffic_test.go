package traffic

import (
	"testing"
	"testing/quick"

	"dragonfly/internal/topology"
)

func testDF(t *testing.T) *topology.Dragonfly {
	t.Helper()
	d, err := topology.NewDragonfly(2, 4, 2, 0)
	if err != nil {
		t.Fatalf("NewDragonfly: %v", err)
	}
	return d
}

// splitmix for test-side random values.
func next(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func TestUniformRandomNeverSelf(t *testing.T) {
	u := NewUniformRandom(72)
	s := uint64(7)
	for i := 0; i < 20000; i++ {
		src := int(next(&s) % 72)
		d := u.Dest(src, next(&s))
		if d == src {
			t.Fatalf("UR returned the source itself (src=%d)", src)
		}
		if d < 0 || d >= 72 {
			t.Fatalf("UR destination %d out of range", d)
		}
	}
}

func TestUniformRandomCoversAll(t *testing.T) {
	u := NewUniformRandom(16)
	seen := make(map[int]bool)
	s := uint64(3)
	for i := 0; i < 5000; i++ {
		seen[u.Dest(0, next(&s))] = true
	}
	if len(seen) != 15 {
		t.Errorf("UR from src 0 covered %d destinations, want 15", len(seen))
	}
}

func TestUniformRandomSingleTerminal(t *testing.T) {
	u := NewUniformRandom(1)
	if d := u.Dest(0, 12345); d != 0 {
		t.Errorf("single-terminal UR returned %d", d)
	}
}

func TestWorstCaseTargetsNextGroup(t *testing.T) {
	d := testDF(t)
	w := NewWorstCase(d)
	s := uint64(11)
	for src := 0; src < d.Nodes(); src++ {
		dst := w.Dest(src, next(&s))
		want := (src/(d.A*d.P) + 1) % d.G
		if got := dst / (d.A * d.P); got != want {
			t.Fatalf("WC from group %d landed in group %d, want %d",
				src/(d.A*d.P), got, want)
		}
	}
}

func TestWorstCaseSpreadsWithinGroup(t *testing.T) {
	d := testDF(t)
	w := NewWorstCase(d)
	s := uint64(5)
	seen := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		seen[w.Dest(0, next(&s))] = true
	}
	if len(seen) != d.A*d.P {
		t.Errorf("WC covered %d nodes of the target group, want %d", len(seen), d.A*d.P)
	}
}

func TestGroupOffset(t *testing.T) {
	d := testDF(t)
	g, err := NewGroupOffset(d, 4)
	if err != nil {
		t.Fatalf("NewGroupOffset: %v", err)
	}
	s := uint64(2)
	for src := 0; src < d.Nodes(); src += 7 {
		dst := g.Dest(src, next(&s))
		want := (src/(d.A*d.P) + 4) % d.G
		if dst/(d.A*d.P) != want {
			t.Fatalf("offset-4 landed in group %d, want %d", dst/(d.A*d.P), want)
		}
	}
	if _, err := NewGroupOffset(d, 0); err == nil {
		t.Error("offset 0 accepted")
	}
	if _, err := NewGroupOffset(d, d.G); err == nil {
		t.Error("offset g accepted (maps groups to themselves)")
	}
}

func TestBitComplement(t *testing.T) {
	b := NewBitComplement(64)
	for src := 0; src < 64; src++ {
		d := b.Dest(src, 0)
		if d != 63-src {
			t.Fatalf("BitComplement(%d) = %d", src, d)
		}
		if b.Dest(d, 0) != src {
			t.Fatal("BitComplement not an involution")
		}
	}
}

func TestTranspose(t *testing.T) {
	tr, err := NewTranspose(64)
	if err != nil {
		t.Fatalf("NewTranspose: %v", err)
	}
	for src := 0; src < 64; src++ {
		d := tr.Dest(src, 0)
		if tr.Dest(d, 0) != src {
			t.Fatal("Transpose not an involution")
		}
	}
	if _, err := NewTranspose(60); err == nil {
		t.Error("non-square terminal count accepted")
	}
}

func TestHotSpot(t *testing.T) {
	h, err := NewHotSpot(100, []int{7, 9}, 0.5)
	if err != nil {
		t.Fatalf("NewHotSpot: %v", err)
	}
	s := uint64(13)
	hot := 0
	n := 20000
	for i := 0; i < n; i++ {
		d := h.Dest(3, next(&s))
		if d == 7 || d == 9 {
			hot++
		}
		if d < 0 || d >= 100 {
			t.Fatalf("destination %d out of range", d)
		}
	}
	frac := float64(hot) / float64(n)
	if frac < 0.45 || frac > 0.57 {
		t.Errorf("hot fraction %v, want ~0.5 (+ uniform hits)", frac)
	}
	if _, err := NewHotSpot(100, nil, 0.5); err == nil {
		t.Error("empty hot set accepted")
	}
	if _, err := NewHotSpot(100, []int{5}, 1.5); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := NewHotSpot(100, []int{200}, 0.5); err == nil {
		t.Error("out-of-range hot terminal accepted")
	}
}

func TestPermutationIsBijective(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 2
		p := NewPermutation(n, seed)
		seen := make([]bool, n)
		for src := 0; src < n; src++ {
			d := p.Dest(src, 0)
			if d < 0 || d >= n || seen[d] {
				return false
			}
			seen[d] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPermutationDeterministicPerSeed(t *testing.T) {
	a := NewPermutation(50, 42)
	b := NewPermutation(50, 42)
	c := NewPermutation(50, 43)
	same := true
	diff := false
	for i := 0; i < 50; i++ {
		if a.Dest(i, 0) != b.Dest(i, 0) {
			same = false
		}
		if a.Dest(i, 0) != c.Dest(i, 0) {
			diff = true
		}
	}
	if !same {
		t.Error("same seed gave different permutations")
	}
	if !diff {
		t.Error("different seeds gave the same permutation")
	}
}

func TestNames(t *testing.T) {
	d := testDF(t)
	g, _ := NewGroupOffset(d, 1)
	tr, _ := NewTranspose(64)
	hs, _ := NewHotSpot(10, []int{1}, 0.1)
	for _, p := range []interface{ Name() string }{
		NewUniformRandom(10), NewWorstCase(d), g, NewBitComplement(8), tr, hs, NewPermutation(8, 1),
	} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}
