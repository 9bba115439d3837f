package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The crew is the sharded engine's phase dispatcher: k−1 persistent
// worker goroutines, one per shard 1..k−1, built with the partition and
// reused by every cycle. Shard 0 runs on the goroutine calling Step.
//
// Handoff. The coordinator publishes a phase by bumping the generation
// counter, runs shard 0 itself, and then waits for the done count to
// reach k−1. A worker that sees the generation move runs its shard's
// closure and bumps the done count.
//
// Spin or block. When the k shards fit the Ps (k ≤ GOMAXPROCS, read
// at every phase), an idle worker polls the generation for
// crewSpinBudget before parking on its wake channel, and the
// coordinator polls the done count for as long, yielding as it goes,
// before blocking on doneCh; it sets waiting first, and the last
// finisher signals doneCh only if it claims that mark. Both budgets
// cover the gaps of a small machine's cycles, and on a large one they
// hand an idle P back to the runtime (the garbage collector's idle
// marking runs there). When the shards do not fit, a spinner would
// only steal the CPU from the shard it waits on, so nobody spins:
// workers park at once and the coordinator blocks on doneCh, which the
// last finisher always signals.
//
// Both handshakes are tagged with a generation. A worker parks for
// the generation it waits for, and the coordinator wakes only a worker
// parked for the generation it just published: with an untagged flag,
// the wake meant for one phase can land on the worker's park for the
// next, which then runs a phase twice. The coordinator marks the
// generation it blocks in, and a last finisher claims only the mark of
// its own phase: with an untagged flag, a finisher preempted between
// its done count and its claim can claim the next phase's mark and
// release the coordinator before that phase has run.
//
// Reachability. Workers hold the crew, never the Network: fns holds the
// phase closures (which capture the Network) only while a phase runs.
// The Network reaches the crew through a crewHandle whose finalizer
// stops the crew, so an unreachable sharded Network takes its workers
// with it.
type crew struct {
	gen     atomic.Uint64 // generation of the phase last published
	done    atomic.Int32  // workers finished with the current phase
	waiting atomic.Uint64 // spin mode: generation the coordinator blocks in, 0 if none
	spin    bool          // this phase's mode; written before gen is bumped
	fns     []func()      // the phase's closures, nil between phases

	doneCh   chan struct{} // block mode: the last finisher signals here
	workers  []crewWorker
	stopOnce sync.Once
	exited   sync.WaitGroup // one count per running worker
}

// crewWorker is the per-worker park state. parked holds the generation
// the worker sleeps waiting for (0 when awake); wake has room for the
// one token that ends that sleep and is closed by stop.
type crewWorker struct {
	parked atomic.Uint64
	wake   chan struct{}
}

// crewHandle is the Network's reference to its crew. No worker sees
// it, so it becomes unreachable together with the Network.
type crewHandle struct{ c *crew }

const (
	// crewSpinBudget is how long an idle worker polls for the next
	// phase, and the coordinator for the workers to finish, before
	// parking. It covers the coordinator's work between two phases —
	// the event fold and the return through Step — and the usual
	// imbalance between shards on a small machine, so there the steady
	// state never parks.
	crewSpinBudget = 100 * time.Microsecond
	// crewPollBatch is how many polls a spinner makes between clock
	// reads. The coordinator also yields after each batch, so a worker
	// that lost its P gets it back.
	crewPollBatch = 32
)

// newCrew starts the workers for shards 1..k-1 of a k-shard phase.
func newCrew(k int) *crew {
	c := &crew{doneCh: make(chan struct{}, 1), workers: make([]crewWorker, k-1)}
	c.exited.Add(k - 1)
	for i := range c.workers {
		c.workers[i].wake = make(chan struct{}, 1)
		go c.work(i)
	}
	return c
}

// newCrewHandle starts a crew for k shards and ties its lifetime to the
// returned handle.
func newCrewHandle(k int) *crewHandle {
	h := &crewHandle{c: newCrew(k)}
	runtime.SetFinalizer(h, func(h *crewHandle) { h.c.stop() })
	return h
}

// run executes fns[0] on the caller and fns[i] on worker i-1, returning
// once all have finished. Only one run may be in progress at a time.
func (c *crew) run(fns []func()) {
	c.fns = fns
	c.spin = len(fns) <= runtime.GOMAXPROCS(0)
	c.done.Store(0)
	g := c.gen.Add(1)
	for i := range c.workers {
		w := &c.workers[i]
		if w.parked.Load() == g && w.parked.CompareAndSwap(g, 0) {
			w.wake <- struct{}{}
		}
	}
	fns[0]()
	if !c.spin || !c.spinUntilDone(g) {
		<-c.doneCh
	}
	c.fns = nil
}

// spinUntilDone polls the done count of phase g for up to
// crewSpinBudget and reports whether every worker finished. When it
// reports false, the coordinator has marked g as waiting and the last
// finisher will signal doneCh.
func (c *crew) spinUntilDone(g uint64) bool {
	want := int32(len(c.workers))
	start := time.Now()
	for polls := 1; c.done.Load() != want; polls++ {
		if polls%crewPollBatch == 0 {
			if time.Since(start) > crewSpinBudget {
				c.waiting.Store(g)
				// If every worker has finished, the mark is still
				// ours to take back unless the last one claimed it
				// and is signalling.
				return c.done.Load() == want && c.waiting.CompareAndSwap(g, 0)
			}
			runtime.Gosched()
		}
	}
	return true
}

// work is worker i's loop: wait for each new generation, run shard
// i+1's closure, report done.
func (c *crew) work(i int) {
	defer c.exited.Done()
	w := &c.workers[i]
	last := int32(len(c.workers))
	var seen uint64
	spin := false
	for {
		g := c.gen.Load()
		if g == seen && spin {
			start := time.Now()
			for polls := 1; g == seen; polls++ {
				if polls%crewPollBatch == 0 && time.Since(start) > crewSpinBudget {
					break
				}
				g = c.gen.Load()
			}
		}
		if g == seen {
			next := seen + 1
			w.parked.Store(next)
			if c.gen.Load() == seen {
				if _, ok := <-w.wake; !ok {
					return
				}
			} else if !w.parked.CompareAndSwap(next, 0) {
				// The coordinator claimed this park and its token is
				// on the way: take it so it cannot end a later park.
				if _, ok := <-w.wake; !ok {
					return
				}
			}
			g = next
		}
		seen = g
		spin = c.spin
		c.fns[i+1]()
		if c.done.Add(1) == last && (!spin || c.waiting.CompareAndSwap(seen, 0)) {
			c.doneCh <- struct{}{}
		}
	}
}

// stop ends the crew and returns once every worker has exited: parked
// workers wake on the closed channels, spinning ones park when their
// budget runs out. It must not overlap a run; calls after the first do
// nothing.
func (c *crew) stop() {
	c.stopOnce.Do(func() {
		for i := range c.workers {
			close(c.workers[i].wake)
		}
		c.exited.Wait()
	})
}
