package sim_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"dragonfly/internal/sim"
)

// FuzzSnapshotDecode drives Restore over arbitrary inputs: truncations,
// bit flips, version bumps and whatever the fuzzer mutates the seed
// corpus into. Each input is restored twice, as is and with its CRC-32C
// re-sealed: almost every mutation breaks the checksum, so only the
// re-sealed form reaches the section decoders. The contract under test
// is the decoder's: every rejection is a typed error wrapping
// ErrBadSnapshot (never a panic), no corrupt length field drives an
// allocation beyond the input size, and anything that does decode
// leaves a network whose flow invariants hold, whose own snapshot
// survives a restore unchanged, and that can step on: a Step may fail
// with an error, never panic. The run section decodes
// through the same entry point (Restore parses and discards it), so
// checkpoint blobs fuzz the full format.
func FuzzSnapshotDecode(f *testing.F) {
	seedCorpus := func(withRun bool, every int64) []byte {
		net := snapNet(f, 3)
		if !withRun {
			net.SetLoad(0.3)
			for i := 0; i < 200; i++ {
				if err := net.Step(); err != nil {
					f.Fatal(err)
				}
			}
			snap, err := net.Snapshot()
			if err != nil {
				f.Fatal(err)
			}
			return snap
		}
		var snap []byte
		stop := errors.New("stop")
		_, err := sim.RunCtx(context.Background(), net, sim.RunConfig{
			Load: 0.25, WarmupCycles: 400, MeasureCycles: 400, DrainCycles: 20000,
			Histogram:       true,
			CheckpointEvery: every,
			CheckpointSink:  func(b []byte) error { snap = bytes.Clone(b); return stop },
		})
		if !errors.Is(err, stop) {
			f.Fatalf("checkpoint capture: %v", err)
		}
		return snap
	}

	engine := seedCorpus(false, 0)
	ckptWarm := seedCorpus(true, 300)
	ckptMeasure := seedCorpus(true, 700)
	f.Add(engine)
	f.Add(ckptWarm)
	f.Add(ckptMeasure)
	f.Add(engine[:len(engine)/2])
	f.Add(ckptWarm[:len(ckptWarm)-5])
	bumped := bytes.Clone(engine)
	bumped[10] = '9'
	f.Add(bumped)
	flipped := bytes.Clone(ckptMeasure)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("dfly-snap/1\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		restoreAndStep(t, data)
		if len(data) >= 4 {
			restoreAndStep(t, reseal(bytes.Clone(data)))
		}
	})
}

// restoreAndStep restores data onto a fresh network and, if it is
// accepted, checks that its snapshot is canonical and steps it.
func restoreAndStep(t *testing.T, data []byte) {
	net := snapNet(t, 2)
	if err := net.Restore(data); err != nil {
		if !errors.Is(err, sim.ErrBadSnapshot) {
			t.Fatalf("Restore returned a non-snapshot error: %v", err)
		}
		var se *sim.SnapshotError
		if !errors.As(err, &se) {
			t.Fatalf("Restore error %T is not a *SnapshotError", err)
		}
		return
	}
	if err := net.CheckFlowInvariants(); err != nil {
		t.Fatalf("accepted snapshot violates flow invariants: %v", err)
	}
	// The snapshot of what was accepted is canonical: restored again (at
	// another shard count) and re-snapshotted, it comes back byte for
	// byte, so every field decodes to what encodes it.
	canon, err := net.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot of the restored network: %v", err)
	}
	again := snapNet(t, 1)
	if err := again.Restore(canon); err != nil {
		t.Fatalf("restoring the snapshot of an accepted network: %v", err)
	}
	if recanon, err := again.Snapshot(); err != nil || !bytes.Equal(recanon, canon) {
		t.Fatalf("snapshot of an accepted network is not canonical (re-snapshot error %v)", err)
	}
	for i := 0; i < 20; i++ {
		if err := net.Step(); err != nil {
			return
		}
	}
}
