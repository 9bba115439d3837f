package sim_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"dragonfly/internal/fault"
	"dragonfly/internal/routing"
	"dragonfly/internal/sim"
	"dragonfly/internal/topology"
	"dragonfly/internal/traffic"
	"dragonfly/internal/workload"
)

// snapNet builds the standard test network for snapshot tests: the
// Figure 5 dragonfly under UGAL-L_VCH/uniform-random, partitioned into
// shards. It takes testing.TB so fuzz seeding (*testing.F) can build
// networks too.
func snapNet(tb testing.TB, shards int) *sim.Network {
	tb.Helper()
	d, err := topology.NewDragonfly(2, 4, 2, 0)
	if err != nil {
		tb.Fatalf("NewDragonfly: %v", err)
	}
	net, err := sim.New(d, testConfig(), routing.NewUGAL(d, routing.UGALLocalVCH), traffic.NewUniformRandom(d.Nodes()))
	if err != nil {
		tb.Fatalf("sim.New: %v", err)
	}
	if err := net.SetShards(shards); err != nil {
		tb.Fatalf("SetShards(%d): %v", shards, err)
	}
	return net
}

// TestSnapshotRoundTripAcrossShards is the canonical-form check: a
// snapshot taken mid-flight at one shard count restores at another, the
// restored network continues bit-identically (its own later snapshot
// equals the original network's), and the encoding itself is
// shard-count independent (both networks produce byte-identical
// snapshots at every compared point).
func TestSnapshotRoundTripAcrossShards(t *testing.T) {
	for _, tc := range []struct{ snapShards, resShards int }{
		{1, 3}, {3, 1}, {3, 3},
	} {
		orig := snapNet(t, tc.snapShards)
		orig.SetLoad(0.3)
		for i := 0; i < 250; i++ {
			if err := orig.Step(); err != nil {
				t.Fatalf("%+v: Step %d: %v", tc, i, err)
			}
		}
		snap, err := orig.Snapshot()
		if err != nil {
			t.Fatalf("%+v: Snapshot: %v", tc, err)
		}
		if orig.InFlight() == 0 {
			t.Fatalf("%+v: nothing in flight at the snapshot point", tc)
		}

		rest := snapNet(t, tc.resShards)
		if err := rest.Restore(snap); err != nil {
			t.Fatalf("%+v: Restore: %v", tc, err)
		}
		if got, want := rest.Now(), orig.Now(); got != want {
			t.Fatalf("%+v: restored at cycle %d, want %d", tc, got, want)
		}
		if got, want := rest.InFlight(), orig.InFlight(); got != want {
			t.Fatalf("%+v: restored %d packets in flight, want %d", tc, got, want)
		}
		resnap, err := rest.Snapshot()
		if err != nil {
			t.Fatalf("%+v: re-Snapshot: %v", tc, err)
		}
		if !bytes.Equal(snap, resnap) {
			t.Fatalf("%+v: snapshot of the restored network differs from the original", tc)
		}

		for i := 0; i < 200; i++ {
			if err := orig.Step(); err != nil {
				t.Fatalf("%+v: original Step %d after snapshot: %v", tc, i, err)
			}
			if err := rest.Step(); err != nil {
				t.Fatalf("%+v: restored Step %d: %v", tc, i, err)
			}
		}
		a, err := orig.Snapshot()
		if err != nil {
			t.Fatalf("%+v: final original Snapshot: %v", tc, err)
		}
		b, err := rest.Snapshot()
		if err != nil {
			t.Fatalf("%+v: final restored Snapshot: %v", tc, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%+v: networks diverged within 200 cycles of the restore", tc)
		}
	}
}

// TestSnapshotSizeHintBound checks that the encoder's preallocation is
// an upper bound on the snapshot it sizes, so Snapshot allocates its
// buffer once: on the 1K machine under UGAL-L_VCH at low load and at
// saturation, where credit queues and wires are full, serial and
// sharded.
func TestSnapshotSizeHintBound(t *testing.T) {
	d, err := topology.NewDragonfly(4, 8, 4, 0)
	if err != nil {
		t.Fatalf("NewDragonfly: %v", err)
	}
	for _, tc := range []struct {
		pattern string
		load    float64
	}{{"UR", 0.1}, {"WC", 0.5}} {
		for _, shards := range []int{1, 2} {
			var tr sim.Traffic = traffic.NewUniformRandom(d.Nodes())
			if tc.pattern == "WC" {
				tr = traffic.NewWorstCase(d)
			}
			net := newNet(t, d, testConfig(), routing.NewUGAL(d, routing.UGALLocalVCH), tr)
			if err := net.SetShards(shards); err != nil {
				t.Fatalf("SetShards(%d): %v", shards, err)
			}
			net.SetLoad(tc.load)
			for i := 0; i < 300; i++ {
				if err := net.Step(); err != nil {
					t.Fatalf("%s %v shards=%d: Step %d: %v", tc.pattern, tc.load, shards, i, err)
				}
			}
			snap, err := net.Snapshot()
			if err != nil {
				t.Fatalf("%s %v shards=%d: Snapshot: %v", tc.pattern, tc.load, shards, err)
			}
			if hint := net.SnapshotSizeHint(); hint < len(snap) {
				t.Errorf("%s %v shards=%d: size hint %d below the %d-byte snapshot", tc.pattern, tc.load, shards, hint, len(snap))
			}
		}
	}
}

// TestSnapshotShortHintSameBytes checks that a first buffer smaller
// than the snapshot costs a second walk, never bytes: whatever size the
// encoder starts from, the snapshot is the same.
func TestSnapshotShortHintSameBytes(t *testing.T) {
	net := snapNet(t, 2)
	net.SetLoad(0.3)
	for i := 0; i < 250; i++ {
		if err := net.Step(); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}
	snap, err := net.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for _, size := range []int{0, 20, len(snap) / 2, len(snap) - 1, len(snap)} {
		if got := net.SnapshotSized(size); !bytes.Equal(got, snap) {
			t.Errorf("first buffer of %d bytes: %d-byte snapshot differs from the %d-byte one", size, len(got), len(snap))
		}
	}
}

// TestSnapshotTypedErrors drives the decoder over the rejection cases:
// every one must be a *SnapshotError wrapping ErrBadSnapshot, never a
// panic, and never a silent success.
func TestSnapshotTypedErrors(t *testing.T) {
	orig := snapNet(t, 1)
	orig.SetLoad(0.3)
	for i := 0; i < 150; i++ {
		if err := orig.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	cases := []struct {
		name string
		mut  func() ([]byte, *sim.Network)
	}{
		{"truncated header", func() ([]byte, *sim.Network) {
			return snap[:8], snapNet(t, 1)
		}},
		{"truncated body", func() ([]byte, *sim.Network) {
			return snap[:len(snap)-40], snapNet(t, 1)
		}},
		{"version bump", func() ([]byte, *sim.Network) {
			b := bytes.Clone(snap)
			b[10] = '2' // "dfly-snap/1" -> "dfly-snap/2"
			return b, snapNet(t, 1)
		}},
		{"flipped bit", func() ([]byte, *sim.Network) {
			b := bytes.Clone(snap)
			b[len(b)/2] ^= 0x10
			return b, snapNet(t, 1)
		}},
		{"fingerprint mismatch", func() ([]byte, *sim.Network) {
			d := testDragonfly(t)
			cfg := testConfig()
			cfg.Seed = 999 // same machine, different RNG universe
			return snap, newNet(t, d, cfg, buildAlg(t, d, "UGAL-L_VCH"), traffic.NewUniformRandom(d.Nodes()))
		}},
	}
	for _, tc := range cases {
		b, net := tc.mut()
		err := net.Restore(b)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, sim.ErrBadSnapshot) {
			t.Errorf("%s: error %v does not wrap ErrBadSnapshot", tc.name, err)
		}
		var se *sim.SnapshotError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %T is not a *SnapshotError", tc.name, err)
		}
	}

	// Restoring onto a network that has already stepped is refused.
	used := snapNet(t, 1)
	used.SetLoad(0.1)
	if err := used.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if err := used.Restore(snap); !errors.Is(err, sim.ErrBadSnapshot) {
		t.Errorf("Restore onto a stepped network: %v, want ErrBadSnapshot", err)
	}

	// Resuming needs a checkpoint (run section), not a bare engine
	// snapshot.
	if _, err := sim.ResumeCtx(context.Background(), snapNet(t, 1), sim.RunConfig{
		Load: 0.3, WarmupCycles: 400, MeasureCycles: 400, DrainCycles: 20000,
	}, snap); !errors.Is(err, sim.ErrBadSnapshot) {
		t.Errorf("ResumeCtx from a runless snapshot: %v, want ErrBadSnapshot", err)
	}
}

// TestSnapshotRejectsMalformedLines patches single entries of the delay
// lines in a real snapshot (re-sealing its CRC) and expects each to be
// refused: a credit entry outside [0, 2^55), below the entry before it
// or above the line's clamp, and a flit line whose delivery cycles are
// negative or decreasing. Restore pushes onto fresh queues, so without
// these checks the entries would be clamped (or wrapped) into a network
// the bytes do not describe.
func TestSnapshotRejectsMalformedLines(t *testing.T) {
	orig := snapNet(t, 1)
	orig.SetLoad(0.3)
	credLink, flitLink := -1, -1
	var flits, credits []int
	for cyc := 0; cyc < 5000 && (credLink < 0 || flitLink < 0); cyc++ {
		if err := orig.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
		flits, credits = orig.LinkLines()
		credLink, flitLink = -1, -1
		for i := range flits {
			if credits[i] >= 2 && credLink < 0 {
				credLink = i
			}
			if flits[i] >= 2 && flitLink < 0 {
				flitLink = i
			}
		}
	}
	if credLink < 0 || flitLink < 0 {
		t.Fatal("no link held two credits and two flits at once")
	}
	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// The link section closes a bare snapshot, just before the CRC; walk
	// it backwards to each link's first byte. A link encodes as dead
	// (1), flit count (4), flits (at 8, vc 1, packet), credit count (4),
	// clamp (8), credits (vc 1, at 8).
	const flitWire = 8 + 1 + sim.PacketWire
	start := make([]int, len(flits))
	off := len(snap) - 4
	for i := len(flits) - 1; i >= 0; i-- {
		off -= 1 + 4 + flitWire*flits[i] + 4 + 8 + 9*credits[i]
		start[i] = off
	}
	flitAt := func(i int) int { return start[flitLink] + 5 + flitWire*i }
	clampAt := start[credLink] + 5 + flitWire*flits[credLink] + 4
	creditAt := func(i int) int { return clampAt + 8 + 9*i + 1 }
	get := func(off int) int64 { return int64(binary.LittleEndian.Uint64(snap[off:])) }
	lastCredit := credits[credLink] - 1
	if c0, c1, clamp := get(creditAt(0)), get(creditAt(lastCredit)), get(clampAt); c0 < 1 || c1 < c0 || clamp < c1 {
		t.Fatalf("credit line not located: entries %d..%d, clamp %d", c0, c1, clamp)
	}
	if f0, f1 := get(flitAt(0)), get(flitAt(1)); f0 < 1 || f1 < f0 {
		t.Fatalf("flit line not located: entries %d, %d", f0, f1)
	}

	patch := func(edits map[int]int64) []byte {
		b := bytes.Clone(snap)
		for off, v := range edits {
			binary.LittleEndian.PutUint64(b[off:], uint64(v))
		}
		return reseal(b)
	}
	if err := snapNet(t, 1).Restore(patch(nil)); err != nil {
		t.Fatalf("re-sealed unpatched snapshot: %v", err)
	}
	const packed = int64(1) << 55
	cases := []struct {
		name  string
		edits map[int]int64
	}{
		{"negative credit", map[int]int64{creditAt(0): -1}},
		{"credit below its predecessor", map[int]int64{creditAt(1): get(creditAt(0)) - 1}},
		{"credit above the clamp", map[int]int64{creditAt(lastCredit): get(clampAt) + 1}},
		{"credit past the packed range", map[int]int64{creditAt(lastCredit): packed}},
		{"clamp past the packed range", map[int]int64{creditAt(lastCredit): packed, clampAt: packed}},
		{"negative flit", map[int]int64{flitAt(0): -1}},
		{"flit below its predecessor", map[int]int64{flitAt(1): get(flitAt(0)) - 1}},
	}
	for _, tc := range cases {
		err := snapNet(t, 1).Restore(patch(tc.edits))
		var se *sim.SnapshotError
		if !errors.As(err, &se) || !errors.Is(err, sim.ErrBadSnapshot) {
			t.Errorf("%s: Restore = %v, want a *SnapshotError", tc.name, err)
		}
	}
}

// reseal rewrites the CRC-32C trailer of a patched snapshot in place,
// so the decoder gets past the checksum to the patched section.
func reseal(b []byte) []byte {
	body := b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return b
}

// TestSnapshotRejectsUnreachablePackets patches single packet records
// of a real snapshot (re-sealing its CRC) into states the engine never
// produces, one per rule the decoder enforces, and expects each to be
// refused. Routing and the credit path index their tables with these
// fields unchecked, so such a network would panic on its next Step or
// break credit conservation.
func TestSnapshotRejectsUnreachablePackets(t *testing.T) {
	// Offsets inside an encoded packet record: id 8, seed 8, src 4,
	// dst 4, flags 1, interGrp 4, nextPort 2, nextVC 1, inPort 2, ...
	const (
		recFlags    = 24
		recInterGrp = 25
		recInPort   = 32
	)
	all := func(sim.QueuedRoute) bool { return true }
	finds := []struct {
		name, where string
		match       func(sim.QueuedRoute) bool
	}{
		{"source", "src", all},
		{"waiting", "wait", all},
		{"minimal", "out", func(p sim.QueuedRoute) bool { return p.Minimal }},
		{"valiant", "out", func(p sim.QueuedRoute) bool { return !p.Minimal && !p.Phase1 }},
		{"wire", "wire", all},
	}
	orig := snapNet(t, 1)
	orig.SetLoad(0.9)
	recs := map[string][]byte{}
	for cyc := 0; cyc < 5000 && len(recs) < len(finds); cyc++ {
		if err := orig.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
		clear(recs)
		for _, f := range finds {
			if rec := orig.QueuedPacket(f.where, f.match); rec != nil {
				recs[f.name] = rec
			}
		}
	}
	if len(recs) < len(finds) {
		t.Fatalf("found only %d of the %d packet kinds the cases patch", len(recs), len(finds))
	}
	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	at := map[string]int{}
	for name, rec := range recs {
		if bytes.Count(snap, rec) != 1 {
			t.Fatalf("%s packet record not located in the snapshot", name)
		}
		at[name] = bytes.Index(snap, rec)
	}
	if err := snapNet(t, 1).Restore(reseal(bytes.Clone(snap))); err != nil {
		t.Fatalf("re-sealed unpatched snapshot: %v", err)
	}

	cases := []struct {
		name string
		mut  func(b []byte)
	}{
		{"source-queued packet marked decided", func(b []byte) { b[at["source"]+recFlags] |= sim.FlagDecided }},
		{"undecided packet past its source queue", func(b []byte) { b[at["waiting"]+recFlags] &^= sim.FlagDecided }},
		{"minimal packet outside phase 1", func(b []byte) { b[at["minimal"]+recFlags] &^= sim.FlagPhase1 }},
		{"non-minimal packet without an intermediate group", func(b []byte) {
			binary.LittleEndian.PutUint32(b[at["valiant"]+recInterGrp:], math.MaxUint32) // -1
		}},
		{"wait-queued packet without an input slot", func(b []byte) {
			binary.LittleEndian.PutUint16(b[at["waiting"]+recInPort:], math.MaxUint16) // -1
		}},
		{"flit moved to another VC", func(b []byte) {
			vc := &b[at["wire"]-1] // a wire flit encodes as at (8), vc (1), record
			*vc = (*vc + 1) % uint8(testConfig().VCs)
		}},
	}
	for _, tc := range cases {
		b := bytes.Clone(snap)
		tc.mut(b)
		err := snapNet(t, 1).Restore(reseal(b))
		var se *sim.SnapshotError
		if !errors.As(err, &se) || !errors.Is(err, sim.ErrBadSnapshot) {
			t.Errorf("%s: Restore = %v, want a *SnapshotError", tc.name, err)
		}
	}
}

// errStopAfterSnapshot is the sentinel a capturing checkpoint sink uses
// to abort its run once it has the snapshot it wanted.
var errStopAfterSnapshot = errors.New("stop after first snapshot")

// captureFirstCheckpoint runs rc on a fresh network with a sink that
// keeps the first checkpoint and aborts, returning the snapshot.
func captureFirstCheckpoint(t *testing.T, shards int, rc sim.RunConfig, every int64) []byte {
	t.Helper()
	var snap []byte
	rc.CheckpointEvery = every
	rc.CheckpointSink = func(b []byte) error {
		snap = bytes.Clone(b)
		return errStopAfterSnapshot
	}
	_, err := sim.RunCtx(context.Background(), snapNet(t, shards), rc)
	if !errors.Is(err, errStopAfterSnapshot) {
		t.Fatalf("checkpoint capture run: %v, want the sink's sentinel", err)
	}
	if snap == nil {
		t.Fatal("no checkpoint fired")
	}
	return snap
}

// TestResumeBitIdentical is the sim-level headline invariant:
// checkpoint → abort → ResumeCtx on a fresh network (at a different
// shard count) produces a Result identical field for field — histograms
// included — to a run that was never interrupted.
func TestResumeBitIdentical(t *testing.T) {
	rc := sim.RunConfig{
		Load: 0.25, WarmupCycles: 400, MeasureCycles: 400, DrainCycles: 20000,
		Histogram: true,
	}
	want, err := sim.RunCtx(context.Background(), snapNet(t, 1), rc)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	for _, tc := range []struct {
		name       string
		every      int64
		snapShards int
		resShards  int
	}{
		{"mid-warmup serial to sharded", 300, 1, 3},
		{"mid-measure sharded to serial", 700, 3, 1},
	} {
		snap := captureFirstCheckpoint(t, tc.snapShards, rc, tc.every)
		got, err := sim.ResumeCtx(context.Background(), snapNet(t, tc.resShards), rc, snap)
		if err != nil {
			t.Fatalf("%s: ResumeCtx: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resumed result differs from uninterrupted:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}

	// Resuming under different run parameters is refused.
	snap := captureFirstCheckpoint(t, 1, rc, 300)
	other := rc
	other.MeasureCycles = 500
	if _, err := sim.ResumeCtx(context.Background(), snapNet(t, 1), other, snap); !errors.Is(err, sim.ErrBadSnapshot) {
		t.Errorf("ResumeCtx with mismatched parameters: %v, want ErrBadSnapshot", err)
	}
}

// TestCheckpointConfigValidation pins the RunConfig contract for the
// checkpoint fields.
func TestCheckpointConfigValidation(t *testing.T) {
	sink := func([]byte) error { return nil }
	base := sim.RunConfig{Load: 0.2, WarmupCycles: 10, MeasureCycles: 10, DrainCycles: 100}
	for _, tc := range []struct {
		name string
		mut  func(*sim.RunConfig)
	}{
		{"negative interval", func(rc *sim.RunConfig) { rc.CheckpointEvery = -1; rc.CheckpointSink = sink }},
		{"interval without sink", func(rc *sim.RunConfig) { rc.CheckpointEvery = 100 }},
		{"sink without interval", func(rc *sim.RunConfig) { rc.CheckpointSink = sink }},
	} {
		rc := base
		tc.mut(&rc)
		var ce *sim.ConfigError
		if err := rc.Validate(); !errors.As(err, &ce) {
			t.Errorf("%s: Validate() = %v, want *ConfigError", tc.name, err)
		}
	}
	rc := base
	rc.CheckpointEvery = 100
	rc.CheckpointSink = sink
	if err := rc.Validate(); err != nil {
		t.Errorf("valid checkpoint config rejected: %v", err)
	}
}

// TestSnapshotRejectsInconsistentRunState patches single fields of a
// checkpoint's run section (re-sealing its CRC) into measurement state
// no run produces, one case per rule the decoder enforces, and expects
// each to be refused. Each patched checkpoint is otherwise well formed,
// so without these rules a resumed run would report a Result the
// interrupted run never had.
func TestSnapshotRejectsInconsistentRunState(t *testing.T) {
	rc := sim.RunConfig{
		Load: 0.25, WarmupCycles: 400, MeasureCycles: 400, DrainCycles: 20000,
		Histogram: true, CheckpointEvery: 700,
	}
	var ckpt, plain []byte
	net := snapNet(t, 1)
	rc.CheckpointSink = func(b []byte) error {
		ckpt = bytes.Clone(b)
		var err error
		if plain, err = net.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		return errStopAfterSnapshot
	}
	if _, err := sim.RunCtx(context.Background(), net, rc); !errors.Is(err, errStopAfterSnapshot) {
		t.Fatalf("checkpoint capture run: %v", err)
	}

	// The run section follows the network section, which is the plain
	// snapshot's body. It encodes the run parameters, the phase position
	// and the counters (118 bytes, minCount at 102 and totalCount at
	// 110), the Latency, MinLatency and NonminLatency accumulators (41
	// bytes each, sample count first), a histogram flag, and the Hist,
	// MinHist and NonminHist histograms (width, total, bucket count,
	// buckets; 8 bytes each).
	run := len(plain) - 4
	get := func(off int) int64 { return int64(binary.LittleEndian.Uint64(ckpt[off:])) }
	minCount, total := get(run+102), get(run+110)
	acc := func(i int) int { return run + 118 + 41*i }
	hist := []int{run + 118 + 3*41 + 1}
	for i := 0; i < 2; i++ {
		hist = append(hist, hist[i]+24+8*int(get(hist[i]+16)))
	}
	if get(run+33) != 2 || get(hist[0]) != 2 || get(hist[0]+8) != total || get(hist[1]+8) != minCount ||
		get(hist[2]+8) != total-minCount || hist[2]+24+8*int(get(hist[2]+16)) != len(ckpt)-4 {
		t.Fatal("run section not located")
	}
	for i, h := range hist {
		if get(h+16) < 2 {
			t.Fatalf("histogram %d has %d buckets; the cases patch two", i, get(h+16))
		}
	}

	patch := func(edits map[int]int64) []byte {
		b := bytes.Clone(ckpt)
		for off, d := range edits {
			binary.LittleEndian.PutUint64(b[off:], uint64(get(off)+d))
		}
		return reseal(b)
	}
	if err := snapNet(t, 1).Restore(patch(nil)); err != nil {
		t.Fatalf("re-sealed unpatched checkpoint: %v", err)
	}
	bucket := func(h, i int) int { return h + 24 + 8*i }
	cases := []struct {
		name  string
		edits map[int]int64
	}{
		{"histogram width not the run's", map[int]int64{hist[0]: 5}},
		{"histogram width below 1", map[int]int64{hist[0]: -2}},
		{"buckets not summing to the total", map[int]int64{bucket(hist[0], 0): 1}},
		{"negative bucket", map[int]int64{bucket(hist[0], 0): -get(bucket(hist[0], 0)) - 1, bucket(hist[0], 1): get(bucket(hist[0], 0)) + 1}},
		{"Latency count off the total", map[int]int64{acc(0): 1}},
		{"MinLatency count off the minimal count", map[int]int64{acc(1): 1}},
		{"NonminLatency count off the non-minimal count", map[int]int64{acc(2): 1}},
		{"accumulator flag byte neither 0 nor 1", map[int]int64{acc(0) + 40: 2}},
		{"Hist total off the total", map[int]int64{hist[0] + 8: 1, bucket(hist[0], 0): 1}},
		{"MinHist total off the minimal count", map[int]int64{hist[1] + 8: 1, bucket(hist[1], 0): 1}},
		{"NonminHist total off the non-minimal count", map[int]int64{hist[2] + 8: 1, bucket(hist[2], 0): 1}},
	}
	for _, tc := range cases {
		err := snapNet(t, 1).Restore(patch(tc.edits))
		var se *sim.SnapshotError
		if !errors.As(err, &se) || !errors.Is(err, sim.ErrBadSnapshot) {
			t.Errorf("%s: Restore = %v, want a *SnapshotError", tc.name, err)
		}
	}
}

// TestSnapshotFingerprintStored: New, SetSource and SetTimeline each
// leave the stored snapshot fingerprint equal to a fresh hash of the
// network's inputs, so Snapshot and Restore can read it instead of
// rehashing. A snapshot of a timeline network is refused by a network
// that got a different timeline through SetTimeline after New, and
// restores on one that got the same timeline.
func TestSnapshotFingerprintStored(t *testing.T) {
	d := testDragonfly(t)
	timeline := func(router int) []sim.Epoch {
		sched, err := fault.NewTimeline(1).FailRouterAt(100, router).RecoverAllAt(400).Compile(d)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		epochs := make([]sim.Epoch, len(sched.Epochs))
		for i, e := range sched.Epochs {
			epochs[i] = sim.Epoch{Start: e.Start, View: e.View}
		}
		return epochs
	}
	var last uint64
	check := func(net *sim.Network, after string) {
		t.Helper()
		stored, fresh := net.Fingerprints()
		if stored != fresh {
			t.Errorf("after %s: stored fingerprint %016x, inputs hash to %016x", after, stored, fresh)
		}
		if stored == last {
			t.Errorf("after %s: fingerprint %016x unchanged", after, stored)
		}
		last = stored
	}
	build := func(router int) *sim.Network {
		sw := topology.NewSwitched(d)
		net, err := sim.New(sw, testConfig(), routing.NewUGAL(sw, routing.UGALLocalVCH), traffic.NewUniformRandom(d.Nodes()))
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		check(net, "New")
		src, err := workload.NewOnOff(d.Nodes(), 20, 40, false)
		if err != nil {
			t.Fatalf("NewOnOff: %v", err)
		}
		if err := net.SetSource(src); err != nil {
			t.Fatalf("SetSource: %v", err)
		}
		check(net, "SetSource")
		if err := net.SetTimeline(timeline(router)); err != nil {
			t.Fatalf("SetTimeline: %v", err)
		}
		check(net, "SetTimeline")
		return net
	}

	net := build(3)
	net.SetLoad(0.3)
	for i := 0; i < 150; i++ {
		if err := net.Step(); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}
	snap, err := net.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	err = build(5).Restore(snap)
	var se *sim.SnapshotError
	if !errors.As(err, &se) || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("Restore under a different timeline = %v, want a fingerprint *SnapshotError", err)
	}
	if err := build(3).Restore(snap); err != nil {
		t.Errorf("Restore under the same timeline: %v", err)
	}
}
