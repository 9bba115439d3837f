package topology

// PairSlots lists global-channel slots per ordered group pair in one
// flat array: the slots from group ga to group gb are
// Slots[Start[ga*Groups+gb]:Start[ga*Groups+gb+1]], in GlobalSlot
// enumeration order; a group's pair with itself is empty. A Degraded
// view keeps its surviving slots in this layout and the routing layer's
// compiled path table keeps the pristine wiring in it, so both are read
// the same way on every hop. A PairSlots is immutable once built.
type PairSlots struct {
	Groups int
	Start  []int32
	Slots  []int32
}

// PairWiring is the part of the minimal-path oracle a PairSlots is
// enumerated from.
type PairWiring interface {
	Groups() int
	ChannelsBetween(ga, gb int) int
	GlobalSlot(grp, dst, m int) int
}

// NewPairSlots enumerates the slots of every ordered group pair of w,
// keeping those keep accepts (all of them when keep is nil).
func NewPairSlots(w PairWiring, keep func(grp, slot int) bool) PairSlots {
	g := w.Groups()
	ps := PairSlots{Groups: g, Start: make([]int32, g*g+1)}
	for ga := 0; ga < g; ga++ {
		for gb := 0; gb < g; gb++ {
			if ga != gb {
				for m, n := 0, w.ChannelsBetween(ga, gb); m < n; m++ {
					slot := w.GlobalSlot(ga, gb, m)
					if keep == nil || keep(ga, slot) {
						ps.Slots = append(ps.Slots, int32(slot))
					}
				}
			}
			ps.Start[ga*g+gb+1] = int32(len(ps.Slots))
		}
	}
	return ps
}

// Pair returns the slots from group ga to group gb.
func (ps *PairSlots) Pair(ga, gb int) []int32 {
	i := ga*ps.Groups + gb
	return ps.Slots[ps.Start[i]:ps.Start[i+1]]
}

// Count returns the number of slots from group ga to group gb.
func (ps *PairSlots) Count(ga, gb int) int {
	i := ga*ps.Groups + gb
	return int(ps.Start[i+1] - ps.Start[i])
}
