package sim

import (
	"context"
	"errors"
	"testing"
)

// TestStallErrorTypedWarmup checks the typed stall error: a wedged
// network must surface ErrStalled (matchable with errors.Is), carry the
// phase it fired in, and include a diagnostic snapshot.
func TestStallErrorTypedWarmup(t *testing.T) {
	net := wedgedNetwork(t)
	_, err := RunCtx(context.Background(), net, RunConfig{
		Load:          1,
		WarmupCycles:  100000,
		MeasureCycles: 100,
		DrainCycles:   100,
		StallLimit:    50,
	})
	if err == nil {
		t.Fatal("wedged network did not report a stall")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("stall error does not match ErrStalled: %v", err)
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("stall error is not a *StallError: %v", err)
	}
	if se.Phase != PhaseWarmup {
		t.Errorf("Phase = %v, want %v", se.Phase, PhaseWarmup)
	}
	if se.StallLimit != 50 {
		t.Errorf("StallLimit = %d, want 50", se.StallLimit)
	}
	if se.Cycle <= 0 {
		t.Errorf("Cycle = %d, want > 0", se.Cycle)
	}
	if se.InFlight <= 0 {
		t.Errorf("InFlight = %d, want > 0 (that is what makes it a stall)", se.InFlight)
	}
	if len(se.Hot) == 0 {
		t.Fatal("no hot VCs in the diagnostic snapshot of a wedged network")
	}
	for _, h := range se.Hot {
		if h.Occupancy <= 0 {
			t.Errorf("hot VC (%d,%d,%d) with occupancy %d", h.Router, h.Port, h.VC, h.Occupancy)
		}
	}
}

func TestStallErrorPhaseMeasure(t *testing.T) {
	net := wedgedNetwork(t)
	_, err := RunCtx(context.Background(), net, RunConfig{
		Load:          1,
		WarmupCycles:  0,
		MeasureCycles: 100000,
		DrainCycles:   100,
		StallLimit:    50,
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("want *StallError, got %v", err)
	}
	if se.Phase != PhaseMeasure {
		t.Errorf("Phase = %v, want %v", se.Phase, PhaseMeasure)
	}
}

func TestStallErrorPhaseDrain(t *testing.T) {
	// Short measurement window (shorter than the stall limit, so the
	// detector cannot fire inside it), then a long drain over a network
	// that will never deliver its tagged packets.
	net := wedgedNetwork(t)
	_, err := RunCtx(context.Background(), net, RunConfig{
		Load:          1,
		WarmupCycles:  0,
		MeasureCycles: 30,
		DrainCycles:   100000,
		StallLimit:    50,
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("want *StallError, got %v", err)
	}
	if se.Phase != PhaseDrain {
		t.Errorf("Phase = %v, want %v", se.Phase, PhaseDrain)
	}
}

func TestPhaseStrings(t *testing.T) {
	// The phase names are part of the error surface (and of older log
	// greps): keep them stable.
	for ph, want := range map[Phase]string{
		PhaseWarmup:  "warm-up",
		PhaseMeasure: "measurement",
		PhaseDrain:   "drain",
	} {
		if ph.String() != want {
			t.Errorf("Phase(%d).String() = %q, want %q", ph, ph.String(), want)
		}
	}
}

func TestUnroutableErrorWrapping(t *testing.T) {
	err := &UnroutableError{Src: 1, Dst: 2, Router: 3}
	if !errors.Is(err, ErrUnroutable) {
		t.Error("UnroutableError does not match ErrUnroutable")
	}
	if errors.Is(err, ErrStalled) {
		t.Error("UnroutableError matches ErrStalled")
	}
	if err.Error() == "" {
		t.Error("empty error string")
	}
}
