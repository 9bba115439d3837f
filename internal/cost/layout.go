package cost

import (
	"fmt"
	"math"
)

// Layout is the machine-room packaging model (Section 2): nodes are
// packaged into cabinets, cabinets stand on a near-square floor grid,
// and inter-cabinet cables run Manhattan routes through overhead trays
// plus a fixed overhead for the vertical drops at both ends.
type Layout struct {
	// NodesPerCabinet is the packaging density (default 256, roughly a
	// BlackWidow-class cabinet of high-radix routers).
	NodesPerCabinet int
	// CabinetPitchM is the centre-to-centre spacing of adjacent cabinets
	// in metres, aisles amortised in.
	CabinetPitchM float64
	// CableOverheadM is added to every inter-cabinet cable for the
	// vertical runs and slack at both ends.
	CableOverheadM float64
	// BackplaneM is the effective length of an intra-cabinet (backplane
	// or short copper) connection.
	BackplaneM float64
}

// DefaultLayout returns the packaging parameters used by the cost
// studies.
func DefaultLayout() Layout {
	return Layout{
		NodesPerCabinet: 256,
		CabinetPitchM:   1.5,
		CableOverheadM:  4,
		BackplaneM:      1,
	}
}

// Validate reports the first problem with the layout.
func (l Layout) Validate() error {
	switch {
	case l.NodesPerCabinet < 1:
		return fmt.Errorf("cost: NodesPerCabinet must be >= 1 (got %d)", l.NodesPerCabinet)
	case l.CabinetPitchM <= 0:
		return fmt.Errorf("cost: CabinetPitchM must be positive (got %v)", l.CabinetPitchM)
	case l.CableOverheadM < 0:
		return fmt.Errorf("cost: CableOverheadM must be >= 0 (got %v)", l.CableOverheadM)
	case l.BackplaneM <= 0:
		return fmt.Errorf("cost: BackplaneM must be positive (got %v)", l.BackplaneM)
	}
	return nil
}

// Cabinets returns the cabinet count for n nodes.
func (l Layout) Cabinets(n int) int {
	return (n + l.NodesPerCabinet - 1) / l.NodesPerCabinet
}

// GridSide returns the side of the near-square cabinet grid.
func (l Layout) GridSide(cabinets int) int {
	s := int(math.Ceil(math.Sqrt(float64(cabinets))))
	if s < 1 {
		s = 1
	}
	return s
}

// MachineDimensionM returns E, the physical dimension of the machine
// (Table 2's unit): the side of the cabinet grid in metres.
func (l Layout) MachineDimensionM(n int) float64 {
	return float64(l.GridSide(l.Cabinets(n))) * l.CabinetPitchM
}

// MeanPairDistanceM returns the average inter-cabinet cable length over
// all unordered cabinet pairs, the expected length of a cable between
// two uniformly random distinct cabinets.
func (l Layout) MeanPairDistanceM(cabinets int) float64 {
	if cabinets < 2 {
		return l.BackplaneM
	}
	// Mean Manhattan distance over a side×side grid (the partially
	// filled last row is a second-order effect): for one axis of length
	// s the mean |ax-bx| over all ordered pairs is (s²-1)/(3s).
	s := float64(l.GridSide(cabinets))
	axis := (s*s - 1) / (3 * s)
	return 2*axis*l.CabinetPitchM + l.CableOverheadM
}
