package sim

import (
	"errors"
	"fmt"
	"strings"
)

// Phase identifies the measurement phase a run error occurred in.
type Phase uint8

const (
	// PhaseWarmup is the pre-measurement steady-state phase.
	PhaseWarmup Phase = iota
	// PhaseMeasure is the tagged-injection window.
	PhaseMeasure
	// PhaseDrain is the post-measurement drain of tagged packets.
	PhaseDrain
)

// String names the phase the way the run methodology does.
func (p Phase) String() string {
	switch p {
	case PhaseWarmup:
		return "warm-up"
	case PhaseMeasure:
		return "measurement"
	case PhaseDrain:
		return "drain"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// ErrStalled is the sentinel every stall (deadlock-detector) failure
// wraps; match it with errors.Is and retrieve the diagnostic snapshot
// with errors.As on *StallError.
var ErrStalled = errors.New("sim: no flit moved (deadlock?)")

// HotVC identifies one heavily occupied input-buffer virtual channel in
// a stall diagnostic: the flits parked there are the ones not moving.
type HotVC struct {
	// Router and Port locate the input buffer; VC the virtual channel.
	Router, Port, VC int
	// Occupancy is the number of flits held in the buffer.
	Occupancy int
	// Waiting is the number of packets queued at Router for output Port
	// (crossbar wait queue plus output buffer), a hint at which output
	// the buffered flits are blocked on.
	Waiting int
}

// StallError reports that no flit moved for StallLimit cycles while
// packets were in flight — the deadlock-detector trip — together with a
// snapshot of the wedged state so deadlocks (for example under fault
// plans that defeat the VC ordering) can be debugged rather than
// guessed at.
type StallError struct {
	// Phase is the run phase the detector fired in.
	Phase Phase
	// Cycle is the simulation cycle at detection time.
	Cycle int64
	// StallLimit is the detector horizon that elapsed without progress.
	StallLimit int64
	// InFlight is the number of packets buffered or on channels.
	InFlight int
	// Hot lists the highest-occupancy input-buffer VCs (most occupied
	// first, at most a handful) — the likely deadlock participants.
	Hot []HotVC
	// Epoch is the fault-timeline epoch the detector fired in (0 when
	// no timeline is installed).
	Epoch int
	// DeadRouters, DeadGlobal, DeadLocal and DeadTerminal are the fault
	// counts of the active view at detection time (all zero on a
	// pristine network): a stall right after an epoch swap is usually
	// livelock against these.
	DeadRouters, DeadGlobal, DeadLocal, DeadTerminal int
}

// faulted reports that the stall happened under a non-trivial fault
// state worth printing.
func (e *StallError) faulted() bool {
	return e.Epoch > 0 || e.DeadRouters > 0 || e.DeadGlobal > 0 || e.DeadLocal > 0 || e.DeadTerminal > 0
}

// Error renders the stall with its diagnostic snapshot.
func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: no flit moved for %d cycles during %s (deadlock?) at cycle %d; %d packets in flight",
		e.StallLimit, e.Phase, e.Cycle, e.InFlight)
	if e.faulted() {
		fmt.Fprintf(&b, "; epoch %d (%d routers, %d global / %d local / %d terminal channels dead)",
			e.Epoch, e.DeadRouters, e.DeadGlobal, e.DeadLocal, e.DeadTerminal)
	}
	if len(e.Hot) > 0 {
		b.WriteString("; top occupancy:")
		for i, h := range e.Hot {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " r%d.p%d.vc%d=%d(wait %d)", h.Router, h.Port, h.VC, h.Occupancy, h.Waiting)
		}
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrStalled) match.
func (e *StallError) Unwrap() error { return ErrStalled }

// ErrCanceled is the sentinel every cancellation failure wraps: the
// run's context was canceled (or its deadline expired) and the engine
// stopped at the next cycle-batch checkpoint. Match it with errors.Is
// and retrieve the partial-run snapshot with errors.As on
// *CanceledError. The underlying context error is also in the chain, so
// errors.Is(err, context.DeadlineExceeded) distinguishes a timeout from
// an explicit cancel.
var ErrCanceled = errors.New("sim: run canceled")

// CanceledError reports that a run observed its context's cancellation
// and stopped, together with how far it got. Cancellation is observed
// only at cycle-batch checkpoints between Steps — it never mutates
// simulation state mid-cycle — so a canceled run's network is a valid
// (merely unfinished) simulation, and re-running the same configuration
// to completion on a fresh network is bit-identical to a run that was
// never canceled.
type CanceledError struct {
	// Phase is the run phase the cancellation was observed in.
	Phase Phase
	// Cycle is the simulation cycle reached when the run stopped.
	Cycle int64
	// InFlight is the number of packets buffered or on channels at
	// cancellation — the work the run abandoned.
	InFlight int
	// Cause is the context's error: context.Canceled or
	// context.DeadlineExceeded.
	Cause error
}

// Error describes the interrupted run.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run canceled during %s at cycle %d (%d packets in flight): %v",
		e.Phase, e.Cycle, e.InFlight, e.Cause)
}

// Unwrap exposes both the ErrCanceled sentinel and the context cause,
// so errors.Is matches either.
func (e *CanceledError) Unwrap() []error { return []error{ErrCanceled, e.Cause} }

// ErrUnroutable is the sentinel wrapped by every "destination truly
// unreachable" routing failure; match with errors.Is. The simulator
// drops unroutable packets (counting them in Result.Dropped) instead of
// aborting the run, so the sentinel surfaces to callers only through
// routing algorithms used standalone.
var ErrUnroutable = errors.New("routing: destination unreachable")

// UnroutableError identifies the packet a routing algorithm could not
// route: the destination terminal is down, or every path the algorithm
// may legally take (one minimal global hop, or a Valiant detour through
// a live intermediate group) is severed by the fault plan.
type UnroutableError struct {
	// Src and Dst are the packet's terminals (Src may be -1 when the
	// query is not packet-bound).
	Src, Dst int
	// Router is where routing gave up.
	Router int
}

// Error describes the unroutable packet.
func (e *UnroutableError) Error() string {
	return fmt.Sprintf("routing: no live route to terminal %d (packet from %d, at router %d)", e.Dst, e.Src, e.Router)
}

// Unwrap makes errors.Is(err, ErrUnroutable) match.
func (e *UnroutableError) Unwrap() error { return ErrUnroutable }

// ConfigError reports an invalid configuration value (Config or
// RunConfig): which parameter, what it was, and why it is rejected.
// Validation happens before the simulation touches the value, so a bad
// configuration is a typed error instead of a downstream panic (NaN
// loads, for example, would otherwise silently never inject).
type ConfigError struct {
	// Param is the offending field name ("Load", "MeasureCycles", ...).
	Param string
	// Value is the rejected value, rendered.
	Value string
	// Reason says what the field requires.
	Reason string
}

// Error describes the rejected parameter.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid config: %s = %s (%s)", e.Param, e.Value, e.Reason)
}

// ErrBadSnapshot is the sentinel every snapshot decode failure wraps:
// the bytes handed to Restore/ResumeCtx are not a usable dfly-snap/1
// snapshot — truncated, corrupt, a different (unsupported) snapshot
// version, or taken from a network this one does not match. Match it
// with errors.Is and retrieve the diagnostic with errors.As on
// *SnapshotError. Restoring from a bad snapshot never panics and never
// allocates proportional to a corrupt length field; it also cannot be
// rolled back, so on error the target network must be discarded.
var ErrBadSnapshot = errors.New("sim: bad snapshot")

// SnapshotError says why a snapshot was rejected.
type SnapshotError struct {
	// Reason is the first problem the decoder found.
	Reason string
}

// Error describes the rejected snapshot.
func (e *SnapshotError) Error() string { return "sim: snapshot: " + e.Reason }

// Unwrap makes errors.Is(err, ErrBadSnapshot) match.
func (e *SnapshotError) Unwrap() error { return ErrBadSnapshot }

// InvariantError reports a violated flow-control invariant (buffer or
// credit overflow): a simulator or routing bug. It fails the run it
// occurred in instead of panicking, so one poisoned simulation cannot
// kill a whole parallel sweep worker pool.
type InvariantError struct {
	// Kind names the violated invariant ("buffer overflow", "credit
	// overflow").
	Kind string
	// Router, Port and VC locate the violation.
	Router, Port, VC int
	// Cycle is the simulation cycle it was detected.
	Cycle int64
}

// Error describes the violation.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("sim: %s at router %d port %d vc %d (flow-control bug) at cycle %d",
		e.Kind, e.Router, e.Port, e.VC, e.Cycle)
}
