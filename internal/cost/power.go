package cost

import "fmt"

// PowerModel estimates network signalling power from the technology
// characteristics of Table 1. The paper notes (Section 5) that the
// dragonfly's cost reduction "also translates to reduction of power":
// fewer cables, and in particular fewer optical transceivers, directly
// reduce the interconnect's power draw.
type PowerModel struct {
	// OpticalWPerCable is the active-component power of one optical
	// cable (Table 1: 1.2 W for Intel Connects Cables).
	OpticalWPerCable float64
	// ElectricalWPerCable is the transceiver power of one electrical
	// cable (Table 1: 20 mW).
	ElectricalWPerCable float64
	// BackplaneWPerChannel approximates a backplane trace's share of the
	// SerDes power.
	BackplaneWPerChannel float64
}

// DefaultPowerModel returns Table 1's figures.
func DefaultPowerModel() PowerModel {
	return PowerModel{
		OpticalWPerCable:     1.2,
		ElectricalWPerCable:  0.02,
		BackplaneWPerChannel: 0.02,
	}
}

// PowerBreakdown itemises signalling power for one configuration.
type PowerBreakdown struct {
	// Name describes the configuration.
	Name string
	// Nodes is the terminal count.
	Nodes int
	// OpticalCables counts cables run optically (length >= the 8 m
	// threshold); ElectricalCables the rest of the inter-router cables;
	// BackplaneChannels the terminal attachments.
	OpticalCables, ElectricalCables, BackplaneChannels int
	// TotalW is the signalling power in watts.
	TotalW float64
}

// PerNodeW returns watts per terminal.
func (p PowerBreakdown) PerNodeW() float64 {
	if p.Nodes == 0 {
		return 0
	}
	return p.TotalW / float64(p.Nodes)
}

// String renders a summary line.
func (p PowerBreakdown) String() string {
	return fmt.Sprintf("%s: %.2f W/node (%d optical, %d electrical cables)",
		p.Name, p.PerNodeW(), p.OpticalCables, p.ElectricalCables)
}

// Power estimates the signalling power of a costed configuration: global
// cables at or beyond the optical threshold draw optical-transceiver
// power, shorter cables electrical power, and terminal channels
// backplane power.
func (pm PowerModel) Power(b Breakdown) PowerBreakdown {
	p := PowerBreakdown{Name: b.Name, Nodes: b.Nodes}
	p.BackplaneChannels = b.TerminalChannels
	if b.AvgGlobalLenM >= OpticalThresholdM {
		p.OpticalCables = b.GlobalChannels
		p.ElectricalCables = b.LocalChannels
	} else {
		p.ElectricalCables = b.GlobalChannels + b.LocalChannels
	}
	p.TotalW = float64(p.OpticalCables)*pm.OpticalWPerCable +
		float64(p.ElectricalCables)*pm.ElectricalWPerCable +
		float64(p.BackplaneChannels)*pm.BackplaneWPerChannel
	return p
}
