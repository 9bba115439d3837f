package sim

// SnapshotSizeHint exposes the snapshot encoder's preallocation bound
// to the external tests.
func (n *Network) SnapshotSizeHint() int { return n.snapshotSizeHint() }

// Crew exposes the sharded engine's phase dispatcher to the external
// tests, which drive it with phase functions of their own.
type Crew = crew

// NewCrew starts a crew for k-function phases.
func NewCrew(k int) *Crew { return newCrew(k) }

// Run runs one phase: fns[0] on the caller, the rest on the workers.
func (c *crew) Run(fns []func()) { c.run(fns) }

// Stop ends the crew's workers.
func (c *crew) Stop() { c.stop() }
