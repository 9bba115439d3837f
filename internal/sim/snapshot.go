package sim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"math"

	"dragonfly/internal/stats"
)

// Snapshot/Restore: the dfly-snap/1 versioned binary encoding of the
// complete engine state, captured only between Steps (the cycle-batch
// checkpoints every other engine facility — cancellation, epoch swaps —
// already uses).
//
// The encoding is canonical with respect to sharding: packets are
// serialised in place, by walking the router queues and link delay
// lines in ascending id order — the serial engine's order — carrying
// their packet records, never arena refs or free-list positions.
// Restore allocates fresh slots in whichever shard owns each location
// under the restoring network's partition, so a snapshot taken at
// shards=N restores correctly at any shard count, and arena layout
// (which is behaviourally irrelevant) is free to differ.
//
// Before encoding, any in-transit mailbox traffic of the sharded engine
// is drained serially — exactly the drain each shard's phase in the
// next Step would open with, so the canonical form is also a
// bit-identical continuation point. Collector state (AttachMetrics,
// hop tracers) is NOT part of a snapshot: observers re-attach after
// Restore.
//
// Layout (all integers little-endian, fixed width; floats as IEEE-754
// bits):
//
//	magic "dfly-snap/1\n"                       12 bytes
//	fingerprint                                 u64
//	flags                                       u8 (bit 0: run section)
//	network section                             (see appendNetwork)
//	run section, when flagged                   (see runState.append)
//	CRC-32C over everything above               u32
//
// The fingerprint is an FNV-64a hash of everything a snapshot is only
// meaningful relative to: the Config (minus Shards), the full link
// wiring, the terminal attachment, the routing and traffic names, and
// the fault liveness (the static plan's, or every epoch of the
// timeline). Restore refuses a snapshot whose fingerprint differs from
// the target network's — restoring onto the wrong machine is a typed
// error, not a corrupt simulation.

// snapMagic opens every dfly-snap/1 snapshot. A different version
// string is a decode error by construction: there is no cross-version
// compatibility, matching the dfly-job hash policy (see
// internal/serve/hash.go).
const snapMagic = "dfly-snap/1\n"

// snapFlagRun marks a snapshot carrying RunCtx measurement state (a
// checkpoint) in addition to engine state.
const snapFlagRun = 1 << 0

// packetWire is the encoded size of one packet record (the 61 bytes of
// pkt's fields, without its padding).
const packetWire = 8 + 8 + 4 + 4 + 1 + 4 + 2 + 1 + 2 + 1 + 8 + 8 + 8 + 2

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// Snapshot captures the complete engine state between Steps. The
// returned bytes restore on a freshly built Network with the same
// topology, configuration, routing, traffic and timeline — at any
// shard count. Snapshotting a sharded network first drains its
// mailboxes (the drain the next Step would perform anyway), so the
// continuation is bit-identical whether or not a snapshot was taken.
func (n *Network) Snapshot() ([]byte, error) {
	return n.snapshot(nil)
}

func (n *Network) snapshot(rs *runState) ([]byte, error) {
	for i := range n.shards {
		n.drainShard(&n.shards[i], n.now&1)
	}
	b := make([]byte, 0, n.snapshotSizeHint())
	b = append(b, snapMagic...)
	b = binary.LittleEndian.AppendUint64(b, n.fingerprint())
	var flags byte
	if rs != nil {
		flags |= snapFlagRun
	}
	b = append(b, flags)
	b = n.appendNetwork(b)
	if rs != nil {
		b = rs.append(b)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, snapCRC))
	return b, nil
}

// snapshotSizeHint bounds the encoded size of the header, the network
// section and the CRC from above, so the encoder allocates once (a
// checkpoint's run section may still grow the buffer). It walks the
// same shapes appendNetwork does, counting every credit-queue entry,
// and charges each in-flight packet the larger on-wire encoding.
func (n *Network) snapshotSizeHint() int {
	const (
		creditHead = 4 + 8 // a credit queue's count and clamp
		creditWire = 1 + 8 // one credit-queue entry
	)
	size := 256 + (17+8*n.source.StateWords())*len(n.termRNG)
	for i := range n.routers {
		r := &n.routers[i]
		size += 1 + r.radix*(4+8+8+creditHead) + r.radix*r.vcs*(8+2*4)
		for p := 0; p < r.radix; p++ {
			size += creditWire * r.ctq[p].n
			if r.isTerm[p] {
				size += 4
			}
		}
	}
	for i := range n.links {
		size += 1 + 4 + creditHead + creditWire*n.links[i].credits.n
	}
	return size + (8+1+packetWire)*n.totalInFlight()
}

// Restore rebuilds the engine state from a dfly-snap/1 snapshot. The
// receiver must be freshly built (no Step taken) over the same
// topology, configuration, routing, traffic and — when the snapshot
// was taken under one — the same timeline (SetTimeline first). The
// shard count is free to differ from the snapshotting network's.
//
// Failures are *SnapshotError (wrapping ErrBadSnapshot): truncation,
// corruption, a version or fingerprint mismatch. On error the network
// may hold partially restored state and must be discarded.
func (n *Network) Restore(snap []byte) error {
	_, err := n.restore(snap, false)
	return err
}

// restore is Restore plus the run section: with wantRun, the snapshot
// must carry RunCtx measurement state (ResumeCtx requires it).
func (n *Network) restore(snap []byte, wantRun bool) (*runState, error) {
	if n.now != 0 {
		return nil, &SnapshotError{Reason: fmt.Sprintf("restore requires a fresh network (this one is at cycle %d)", n.now)}
	}
	if len(snap) < len(snapMagic)+8+1+4 {
		return nil, &SnapshotError{Reason: "shorter than the snapshot header"}
	}
	if string(snap[:len(snapMagic)]) != snapMagic {
		head := snap[:len(snapMagic)]
		return nil, &SnapshotError{Reason: fmt.Sprintf("bad magic %q (want %q; unknown or incompatible snapshot version)", head, snapMagic)}
	}
	body := snap[:len(snap)-4]
	if got, want := crc32.Checksum(body, snapCRC), binary.LittleEndian.Uint32(snap[len(snap)-4:]); got != want {
		return nil, &SnapshotError{Reason: fmt.Sprintf("CRC mismatch (computed %08x, stored %08x)", got, want)}
	}
	d := &snapDec{b: body[len(snapMagic):]}
	if fp, want := d.u64(), n.fingerprint(); d.err == nil && fp != want {
		return nil, &SnapshotError{Reason: fmt.Sprintf("fingerprint %016x does not match this network (%016x): different topology, config, routing, traffic or timeline", fp, want)}
	}
	flags := d.u8()
	if d.err == nil && flags&^snapFlagRun != 0 {
		d.fail("unknown flag bits %#x", flags)
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := n.decodeNetwork(d); err != nil {
		return nil, err
	}
	var rs *runState
	if flags&snapFlagRun != 0 {
		rs = &runState{}
		if err := d.run(rs); err != nil {
			return nil, err
		}
	} else if wantRun {
		return nil, &SnapshotError{Reason: "snapshot carries no run section (captured by Snapshot, not a RunCtx checkpoint)"}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes after the last section", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	n.recount()
	if err := n.CheckFlowInvariants(); err != nil {
		return nil, &SnapshotError{Reason: "restored state breaks a flow invariant: " + err.Error()}
	}
	return rs, nil
}

// fingerprint hashes everything a snapshot is only meaningful relative
// to. Config.Shards is deliberately excluded: snapshots are
// shard-count independent.
func (n *Network) fingerprint() uint64 {
	h := fnv.New64a()
	var scratch [6 * 8]byte
	put := func(vals ...uint64) {
		b := scratch[:0]
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		h.Write(b)
	}
	b1 := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	put(uint64(n.cfg.BufDepth), uint64(n.cfg.OutDepth), uint64(n.cfg.VCs),
		uint64(n.cfg.LocalLatency), uint64(n.cfg.GlobalLatency), b1(n.cfg.DelayCredits))
	put(uint64(n.cfg.DelaySlack), n.cfg.Seed)
	put(uint64(len(n.routers)), uint64(n.topo.Terminals()), uint64(len(n.links)))
	h.Write([]byte(n.routing.Name()))
	h.Write([]byte{0})
	h.Write([]byte(n.traffic.Name()))
	h.Write([]byte{0})
	// The source fingerprint (family + canonical parameters) guards the
	// per-terminal source-state section: a resume under a differently-
	// configured arrival process is refused, not silently diverged.
	h.Write([]byte(n.source.Fingerprint()))
	h.Write([]byte{0})
	for i := range n.links {
		l := &n.links[i]
		put(uint64(l.src), uint64(l.srcPort), uint64(l.dst), uint64(l.dstPort), uint64(l.latency), b1(l.global))
	}
	for t := 0; t < n.topo.Terminals(); t++ {
		put(uint64(n.topo.TerminalRouter(t)), uint64(n.topo.TerminalPort(t)))
	}
	// Fault liveness must hash identically on the snapshotting network
	// (mid-run, mutable link state) and on a fresh restore target, so it
	// is read from the topology views, never from link.dead: a timeline
	// contributes every epoch's view, a static plan its standing one.
	switch {
	case n.epochs != nil:
		put(uint64(len(n.epochs)))
		for i := range n.epochs {
			put(uint64(n.epochs[i].Start))
			n.hashLiveness(h, n.epochs[i].View)
		}
	default:
		if deg, ok := n.topo.(DegradedTopology); ok {
			put(1)
			n.hashLiveness(h, deg)
		} else {
			put(0)
		}
	}
	return h.Sum64()
}

// hashLiveness folds one fault view's link and terminal liveness into h.
func (n *Network) hashLiveness(h hash.Hash64, v interface{ Alive(router, port int) bool }) {
	var chunk [512]byte
	k := 0
	emit := func(a bool) {
		if a {
			chunk[k] = 1
		} else {
			chunk[k] = 0
		}
		k++
		if k == len(chunk) {
			h.Write(chunk[:])
			k = 0
		}
	}
	for i := range n.links {
		emit(v.Alive(n.links[i].src, n.links[i].srcPort))
	}
	for t := 0; t < n.topo.Terminals(); t++ {
		emit(v.Alive(n.topo.TerminalRouter(t), n.topo.TerminalPort(t)))
	}
	h.Write(chunk[:k])
}

// appendNetwork encodes the engine state (mailboxes already drained).
func (n *Network) appendNetwork(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(n.now))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.load))
	b = appendBool(b, n.measuring)
	b = appendBool(b, n.countWindow)
	b = binary.LittleEndian.AppendUint64(b, uint64(n.killedInFlight))
	b = binary.LittleEndian.AppendUint64(b, uint64(n.rerouted))
	b = binary.LittleEndian.AppendUint64(b, uint64(n.maxLastMove()))
	b = binary.LittleEndian.AppendUint64(b, uint64(n.totalDropped()))
	b = binary.LittleEndian.AppendUint64(b, uint64(n.totalInjectedWindow()))
	b = binary.LittleEndian.AppendUint64(b, uint64(n.totalEjectedWindow()))
	b = binary.LittleEndian.AppendUint32(b, uint32(n.epochIdx))

	b = binary.LittleEndian.AppendUint32(b, uint32(len(n.termRNG)))
	for t := range n.termRNG {
		b = binary.LittleEndian.AppendUint64(b, n.termRNG[t].state)
		b = binary.LittleEndian.AppendUint64(b, n.termSeq[t])
		b = appendBool(b, n.termAlive[t])
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(n.aliveTerms))

	// Arrival-process state: the per-terminal word count, then each
	// terminal's words. The source identity itself is covered by the
	// fingerprint, so a mismatched word count here means corruption.
	words := n.source.StateWords()
	b = binary.LittleEndian.AppendUint32(b, uint32(words))
	if words > 0 {
		var buf [maxSourceStateWords]uint64
		for t := range n.termRNG {
			n.source.SaveState(t, buf[:words])
			for _, w := range buf[:words] {
				b = binary.LittleEndian.AppendUint64(b, w)
			}
		}
	}

	b = binary.LittleEndian.AppendUint32(b, uint32(len(n.routers)))
	for ri := range n.routers {
		r := &n.routers[ri]
		ar := &n.shards[n.routerShard[ri]].ar
		b = appendBool(b, n.routerDead != nil && n.routerDead[ri])
		for p := 0; p < r.radix; p++ {
			b = binary.LittleEndian.AppendUint32(b, uint32(r.outRR[p]))
			b = binary.LittleEndian.AppendUint64(b, uint64(r.td[p]))
			b = binary.LittleEndian.AppendUint64(b, uint64(r.crossTd[p]))
			b = appendCreditQueue(b, &r.ctq[p])
		}
		for i := 0; i < r.radix*r.vcs; i++ {
			b = binary.LittleEndian.AppendUint32(b, uint32(r.inOcc[i]))
			b = binary.LittleEndian.AppendUint32(b, uint32(r.credits[i]))
		}
		for p := 0; p < r.radix; p++ {
			if r.isTerm[p] {
				b = appendPktQueue(b, ar, &r.srcQ[p])
			}
		}
		for i := 0; i < r.radix*r.vcs; i++ {
			b = appendPktQueue(b, ar, &r.waitQ[i])
		}
		for i := 0; i < r.radix*r.vcs; i++ {
			b = appendPktQueue(b, ar, &r.outQ[i])
		}
	}

	b = binary.LittleEndian.AppendUint32(b, uint32(len(n.links)))
	for li := range n.links {
		l := &n.links[li]
		// Flits riding link l live in the arena of the shard owning l.dst.
		ar := &n.shards[n.routerShard[l.dst]].ar
		b = appendBool(b, l.dead)
		b = binary.LittleEndian.AppendUint32(b, uint32(l.flits.n))
		mask := len(l.flits.buf) - 1
		for i := 0; i < l.flits.n; i++ {
			e := &l.flits.buf[(l.flits.head+i)&mask]
			b = binary.LittleEndian.AppendUint64(b, uint64(e.at))
			b = append(b, e.vc)
			b = appendWirePacket(b, &ar.p[e.ref])
		}
		b = appendCreditQueue(b, &l.credits)
	}
	return b
}

// decodeNetwork rebuilds the engine state on a fresh network. Every
// count and index is validated before use: a CRC-valid but adversarial
// input yields a typed error, never a panic or an unbounded allocation.
func (n *Network) decodeNetwork(d *snapDec) error {
	now := d.i64()
	load := d.f64()
	measuring := d.bool()
	countWindow := d.bool()
	killed := d.i64()
	rerouted := d.i64()
	lastMove := d.i64()
	dropped := d.i64()
	injWin := d.i64()
	ejWin := d.i64()
	epochIdx := int(d.u32())
	if d.err != nil {
		return d.err
	}
	switch {
	case now < 0:
		d.fail("negative cycle %d", now)
	case math.IsNaN(load) || load < 0 || load > 1:
		d.fail("injection load %v out of range", load)
	case lastMove < 0 || lastMove > now:
		d.fail("last-movement cycle %d outside [0, %d]", lastMove, now)
	case killed < 0 || rerouted < 0 || dropped < 0 || injWin < 0 || ejWin < 0:
		d.fail("negative event counter")
	}
	if d.err != nil {
		return d.err
	}

	if n.epochs != nil {
		if epochIdx < 0 || epochIdx >= len(n.epochs) {
			d.fail("epoch index %d outside the timeline's %d epochs", epochIdx, len(n.epochs))
			return d.err
		}
		// Adopt the governing epoch's view directly — liveness state is
		// restored field by field below, so the kill/rescue reconciliation
		// of applyEpoch must not run.
		n.topo.(SwitchedTopology).SetEpoch(n.epochs[epochIdx].View)
		n.epochIdx = epochIdx
	} else if epochIdx != 0 {
		d.fail("snapshot is mid-timeline (epoch %d) but this network has none", epochIdx)
		return d.err
	}

	if got := int(d.u32()); d.err == nil && got != len(n.termRNG) {
		d.fail("terminal count %d, network has %d", got, len(n.termRNG))
	}
	if d.err != nil {
		return d.err
	}
	alive := 0
	for t := range n.termRNG {
		n.termRNG[t].state = d.u64()
		n.termSeq[t] = d.u64()
		n.termAlive[t] = d.bool()
		if n.termAlive[t] {
			alive++
		}
	}
	if got := int(d.u32()); d.err == nil && got != alive {
		d.fail("alive-terminal count %d disagrees with the %d per-terminal flags", got, alive)
	}
	if d.err != nil {
		return d.err
	}
	n.aliveTerms = alive

	words := n.source.StateWords()
	if got := int(d.u32()); d.err == nil && got != words {
		d.fail("source state is %d words/terminal, the installed %q source holds %d", got, n.source.Name(), words)
	}
	if d.err != nil {
		return d.err
	}
	if words > 0 {
		var buf [maxSourceStateWords]uint64
		for t := range n.termRNG {
			for i := 0; i < words; i++ {
				buf[i] = d.u64()
			}
			if d.err != nil {
				return d.err
			}
			if err := n.source.LoadState(t, buf[:words]); err != nil {
				d.fail("source state for terminal %d: %v", t, err)
				return d.err
			}
		}
	}

	if got := int(d.u32()); d.err == nil && got != len(n.routers) {
		d.fail("router count %d, network has %d", got, len(n.routers))
	}
	if d.err != nil {
		return d.err
	}
	for ri := range n.routers {
		r := &n.routers[ri]
		sh := n.shardForRouter(ri)
		deadFlag := d.bool()
		if d.err == nil && deadFlag && n.routerDead == nil {
			d.fail("router %d marked dead but this network has no timeline", ri)
		}
		if d.err != nil {
			return d.err
		}
		if n.routerDead != nil {
			n.routerDead[ri] = deadFlag
		}
		for p := 0; p < r.radix; p++ {
			rr := int32(d.u32())
			td := d.i64()
			crossTd := d.i64()
			if d.err == nil && (rr < 0 || rr >= int32(r.vcs) || td < 0 || crossTd < 0) {
				d.fail("router %d port %d sensor state out of range", ri, p)
			}
			if d.err != nil {
				return d.err
			}
			r.outRR[p] = rr
			r.td[p] = td
			r.crossTd[p] = crossTd
			if err := d.creditQueue(&r.ctq[p], r.vcs); err != nil {
				return err
			}
			if r.isTerm[p] && r.ctq[p].len() > 0 {
				d.fail("router %d terminal port %d holds send timestamps", ri, p)
				return d.err
			}
		}
		for i := 0; i < r.radix*r.vcs; i++ {
			occ := int32(d.u32())
			cr := int32(d.u32())
			if d.err == nil && (occ < 0 || occ > int32(r.depth) || cr < 0 || cr > int32(r.depth)) {
				d.fail("router %d slot %d occupancy/credits outside [0, %d]", ri, i, r.depth)
			}
			if d.err != nil {
				return d.err
			}
			r.inOcc[i] = occ
			r.credits[i] = cr
		}
		for p := 0; p < r.radix; p++ {
			if !r.isTerm[p] {
				continue
			}
			if err := d.pktQueue(n, sh, r, &r.srcQ[p], atSource); err != nil {
				return err
			}
		}
		for i := 0; i < r.radix*r.vcs; i++ {
			if err := d.pktQueue(n, sh, r, &r.waitQ[i], atWait); err != nil {
				return err
			}
		}
		for i := 0; i < r.radix*r.vcs; i++ {
			if err := d.pktQueue(n, sh, r, &r.outQ[i], atOut); err != nil {
				return err
			}
		}
	}

	if got := int(d.u32()); d.err == nil && got != len(n.links) {
		d.fail("link count %d, network has %d", got, len(n.links))
	}
	if d.err != nil {
		return d.err
	}
	for li := range n.links {
		l := &n.links[li]
		sh := n.shardForRouter(l.dst)
		l.dead = d.bool()
		cnt := d.count(8+1+packetWire, "link flit")
		if d.err != nil {
			return d.err
		}
		prev := int64(0)
		for i := 0; i < cnt; i++ {
			at := d.i64()
			vc := d.u8()
			if d.err == nil && int(vc) >= n.cfg.VCs {
				d.fail("link %d flit VC %d out of range", li, vc)
			}
			if d.err == nil && at < prev {
				d.fail("link %d flit %d at cycle %d, before %d", li, i, at, prev)
			}
			prev = at
			if d.err != nil {
				return d.err
			}
			ref, err := d.packet(n, sh, nil, atWire)
			if err != nil {
				return err
			}
			l.flits.push(flitEntry{at: at, ref: ref, vc: vc})
		}
		if err := d.creditQueue(&l.credits, n.cfg.VCs); err != nil {
			return err
		}
	}

	n.now = now
	n.load = load
	n.measuring = measuring
	n.countWindow = countWindow
	n.killedInFlight = killed
	n.rerouted = rerouted
	// lastMove is kept as a global maximum (the stall detector only reads
	// the max); the window and drop counters are totals, homed on shard 0
	// (they are only ever read summed).
	for i := range n.shards {
		n.shards[i].lastMove = lastMove
	}
	n.shards[0].dropped = dropped
	n.shards[0].injectedWindow = injWin
	n.shards[0].ejectedWindow = ejWin
	return nil
}

// appendPacket encodes one packet record.
func appendPacket(b []byte, p *pkt) []byte {
	b = binary.LittleEndian.AppendUint64(b, p.id)
	b = binary.LittleEndian.AppendUint64(b, p.seed)
	b = binary.LittleEndian.AppendUint32(b, uint32(p.src))
	b = binary.LittleEndian.AppendUint32(b, uint32(p.dst))
	b = append(b, p.flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(p.interGrp))
	b = binary.LittleEndian.AppendUint16(b, uint16(p.nextPort))
	b = append(b, byte(p.nextVC))
	b = binary.LittleEndian.AppendUint16(b, uint16(p.inPort))
	b = append(b, byte(p.bufVC))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.arrive))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.create))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.inject))
	b = binary.LittleEndian.AppendUint16(b, uint16(p.hops))
	return b
}

// appendWirePacket encodes a packet riding a link. The in-buffer
// fields (arrive, inPort, bufVC) are rewritten at delivery and hold
// don't-care residue until then, left by the router the flit departed,
// so the canonical form zeroes them: the encoding must not depend on
// where the flit came from.
func appendWirePacket(b []byte, p *pkt) []byte {
	w := *p
	w.inPort, w.bufVC, w.arrive = 0, 0, 0
	return appendPacket(b, &w)
}

// pktAt names where a decoded packet sits; each place admits only the
// packet states the engine can leave there.
type pktAt uint8

const (
	atSource pktAt = iota // source queue: not yet admitted, so undecided
	atWait                // crossbar wait queue: holds an input-buffer slot
	atOut                 // output buffer: its input slot already freed
	atWire                // riding a link
)

// packet decodes one record into a fresh slot of sh's arena, updating
// the shard's in-flight accounting. r is the router whose queue the
// packet sits in (port/VC fields are validated against its shape), nil
// for flits on a wire (whose port fields are rewritten at delivery).
// Beyond ranges, the routing state must be one the engine produces at
// that place: routing reads it unchecked on the next Step.
func (d *snapDec) packet(n *Network, sh *shard, r *Router, at pktAt) (int32, error) {
	var p pkt
	p.id = d.u64()
	p.seed = d.u64()
	p.src = int32(d.u32())
	p.dst = int32(d.u32())
	p.flags = d.u8()
	p.interGrp = int32(d.u32())
	p.nextPort = int16(d.u16())
	p.nextVC = int8(d.u8())
	p.inPort = int16(d.u16())
	p.bufVC = int8(d.u8())
	p.arrive = d.i64()
	p.create = d.i64()
	p.inject = d.i64()
	p.hops = int16(d.u16())
	if d.err != nil {
		return nilRef, d.err
	}
	terms := n.topo.Terminals()
	minimal := p.flags&pfMinimal != 0
	switch {
	case p.flags&^(pfMinimal|pfPhase1|pfDecided|pfMeasured) != 0:
		d.fail("packet %#x has unknown flag bits %#x", p.id, p.flags)
	case p.src < 0 || int(p.src) >= terms || p.dst < 0 || int(p.dst) >= terms:
		d.fail("packet %#x src/dst outside the %d terminals", p.id, terms)
	case p.hops < 0:
		d.fail("packet %#x negative hop count", p.id)
	case at == atSource:
		if p.flags&(pfDecided|pfMinimal|pfPhase1) != 0 || p.interGrp != -1 {
			d.fail("source-queued packet %#x carries a routing decision", p.id)
		}
	case p.flags&pfDecided == 0:
		d.fail("packet %#x left its source queue undecided", p.id)
	case minimal && (p.flags&pfPhase1 == 0 || p.interGrp != -1):
		d.fail("minimal packet %#x has intermediate group %d or is not in phase 1", p.id, p.interGrp)
	case !minimal && (p.interGrp < 0 || int(p.interGrp) >= n.groupCount()):
		d.fail("non-minimal packet %#x intermediate group %d outside [0, %d)", p.id, p.interGrp, n.groupCount())
	case at == atWait && p.inPort < 0:
		d.fail("packet %#x waits at the crossbar without an input-buffer slot", p.id)
	}
	if d.err == nil && r != nil {
		if int(p.nextPort) < 0 || int(p.nextPort) >= r.radix || int(p.nextVC) < 0 || int(p.nextVC) >= r.vcs ||
			int(p.inPort) < -1 || int(p.inPort) >= r.radix || int(p.bufVC) < 0 || int(p.bufVC) >= r.vcs {
			d.fail("packet %#x port/VC fields out of range for router %d", p.id, r.ID)
		}
	}
	if d.err != nil {
		return nilRef, d.err
	}
	ref := sh.ar.alloc()
	sh.ar.p[ref] = p
	sh.inFlight++
	if p.flags&pfMeasured != 0 {
		sh.outstanding++
	}
	return ref, nil
}

// appendPktQueue encodes a packet queue head-to-tail.
func appendPktQueue(b []byte, ar *arena, q *pktQueue) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(q.n))
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		b = appendPacket(b, &ar.p[q.buf[(q.head+i)&mask]])
	}
	return b
}

// pktQueue decodes a packet queue of router r into q, homing the
// packets in sh.
func (d *snapDec) pktQueue(n *Network, sh *shard, r *Router, q *pktQueue, at pktAt) error {
	cnt := d.count(packetWire, "queued packet")
	if d.err != nil {
		return d.err
	}
	for i := 0; i < cnt; i++ {
		ref, err := d.packet(n, sh, r, at)
		if err != nil {
			return err
		}
		q.push(ref)
	}
	return nil
}

// appendCreditQueue encodes a credit delay line head-to-tail, plus its
// monotone-delivery clamp (lastAt persists after the entries drain, so
// it is state of its own).
func appendCreditQueue(b []byte, q *creditQueue) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(q.n))
	b = binary.LittleEndian.AppendUint64(b, uint64(q.lastAt))
	for i := 0; i < q.n; i++ {
		vc, at := q.entry(i)
		b = append(b, vc)
		b = binary.LittleEndian.AppendUint64(b, uint64(at))
	}
	return b
}

// creditQueue decodes a credit delay line into q. The queue is fresh,
// so push would silently clamp a negative or out-of-order entry and
// wrap one past the packed range; such lines are rejected instead: every
// entry lies in [0, maxCreditAt), no lower than the one before it and
// no higher than the decoded clamp.
func (d *snapDec) creditQueue(q *creditQueue, vcs int) error {
	cnt := d.count(1+8, "queued credit")
	lastAt := d.i64()
	if d.err == nil && (lastAt < 0 || lastAt >= maxCreditAt) {
		d.fail("credit clamp %d outside [0, 2^55)", lastAt)
	}
	if d.err != nil {
		return d.err
	}
	prev := int64(0)
	for i := 0; i < cnt; i++ {
		vc := d.u8()
		at := d.i64()
		if d.err == nil && int(vc) >= vcs {
			d.fail("credit VC %d out of range", vc)
		}
		if d.err == nil && (at < prev || at > lastAt) {
			d.fail("credit %d at cycle %d outside [%d, %d]", i, at, prev, lastAt)
		}
		if d.err != nil {
			return d.err
		}
		q.push(vc, at)
		prev = at
	}
	// The clamp outlives the entries (a drained queue still holds back
	// earlier delivery times), so it is restored explicitly, after the
	// pushes.
	q.lastAt = lastAt
	return nil
}

// append encodes the RunCtx measurement state: the run parameters (so
// resume can refuse a mismatched RunConfig), the phase position, and
// every accumulator the OnEject observer feeds.
func (st *runState) append(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(st.rc.Load))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.rc.WarmupCycles))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.rc.MeasureCycles))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.rc.DrainCycles))
	b = appendBool(b, st.rc.Histogram)
	b = binary.LittleEndian.AppendUint64(b, uint64(st.rc.HistWidth))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.rc.StallLimit))
	b = append(b, st.phaseIdx)
	b = binary.LittleEndian.AppendUint64(b, uint64(st.iterDone))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(st.res.Offered))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(st.res.Accepted))
	b = binary.LittleEndian.AppendUint32(b, uint32(st.res.AliveTerminals))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.dropped0))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.killed0))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.rerouted0))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.minCount))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.totalCount))
	b = st.res.Latency.AppendBinary(b)
	b = st.res.MinLatency.AppendBinary(b)
	b = st.res.NonminLatency.AppendBinary(b)
	if st.res.Hist != nil {
		b = appendBool(b, true)
		b = st.res.Hist.AppendBinary(b)
		b = st.res.MinHist.AppendBinary(b)
		b = st.res.NonminHist.AppendBinary(b)
	} else {
		b = appendBool(b, false)
	}
	return b
}

// run decodes the RunCtx measurement state.
func (d *snapDec) run(rs *runState) error {
	rs.rc.Load = d.f64()
	rs.rc.WarmupCycles = int(d.i64())
	rs.rc.MeasureCycles = int(d.i64())
	rs.rc.DrainCycles = int(d.i64())
	rs.rc.Histogram = d.bool()
	rs.rc.HistWidth = d.i64()
	rs.rc.StallLimit = d.i64()
	rs.phaseIdx = d.u8()
	rs.iterDone = d.i64()
	rs.res.Offered = d.f64()
	rs.res.Accepted = d.f64()
	rs.res.AliveTerminals = int(d.u32())
	rs.dropped0 = d.i64()
	rs.killed0 = d.i64()
	rs.rerouted0 = d.i64()
	rs.minCount = d.i64()
	rs.totalCount = d.i64()
	if d.err != nil {
		return d.err
	}
	if err := rs.rc.Validate(); err != nil {
		d.fail("checkpointed run parameters invalid: %v", err)
		return d.err
	}
	var limit int
	switch rs.phaseIdx {
	case phaseWarmupIdx:
		limit = rs.rc.WarmupCycles
	case phaseMeasureIdx:
		limit = rs.rc.MeasureCycles
	case phaseDrainIdx:
		limit = rs.rc.DrainCycles
	default:
		d.fail("unknown run phase %d", rs.phaseIdx)
		return d.err
	}
	if rs.iterDone < 0 || rs.iterDone >= int64(limit) {
		d.fail("phase position %d outside the %s phase's %d cycles", rs.iterDone, Phase(rs.phaseIdx), limit)
		return d.err
	}
	if rs.res.AliveTerminals < 1 {
		d.fail("checkpointed run has %d alive terminals", rs.res.AliveTerminals)
		return d.err
	}
	if rs.dropped0 < 0 || rs.killed0 < 0 || rs.rerouted0 < 0 || rs.minCount < 0 || rs.totalCount < 0 || rs.minCount > rs.totalCount {
		d.fail("checkpointed run counters out of range")
		return d.err
	}
	d.accumulator(&rs.res.Latency)
	d.accumulator(&rs.res.MinLatency)
	d.accumulator(&rs.res.NonminLatency)
	hasHist := d.bool()
	if d.err != nil {
		return d.err
	}
	if hasHist != rs.rc.Histogram {
		d.fail("histogram section does not match the checkpointed run parameters")
		return d.err
	}
	if hasHist {
		rs.res.Hist = d.histogram()
		rs.res.MinHist = d.histogram()
		rs.res.NonminHist = d.histogram()
	}
	return d.err
}

// accumulator decodes one stats.Accumulator in place.
func (d *snapDec) accumulator(a *stats.Accumulator) {
	if d.err != nil {
		return
	}
	rest, err := a.DecodeBinary(d.b)
	if err != nil {
		d.fail("measurement accumulator: %v", err)
		return
	}
	d.b = rest
}

// histogram decodes one stats.Histogram.
func (d *snapDec) histogram() *stats.Histogram {
	if d.err != nil {
		return nil
	}
	h := &stats.Histogram{}
	rest, err := h.DecodeBinary(d.b)
	if err != nil {
		d.fail("latency histogram: %v", err)
		return nil
	}
	d.b = rest
	return h
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// snapDec is the error-carrying bounded reader the decoder runs on:
// every read checks the remaining input, every count is validated
// against the bytes that would have to follow it, and the first failure
// sticks (subsequent reads return zero values, and the caller checks
// err at section boundaries).
type snapDec struct {
	b   []byte
	err error
}

// fail records the first decode failure as a *SnapshotError.
func (d *snapDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = &SnapshotError{Reason: fmt.Sprintf(format, args...)}
	}
}

func (d *snapDec) take(k int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < k {
		d.fail("truncated (%d bytes left, need %d)", len(d.b), k)
		return nil
	}
	v := d.b[:k]
	d.b = d.b[k:]
	return v
}

func (d *snapDec) u8() uint8 {
	v := d.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (d *snapDec) u16() uint16 {
	v := d.take(2)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(v)
}

func (d *snapDec) u32() uint32 {
	v := d.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (d *snapDec) u64() uint64 {
	v := d.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (d *snapDec) i64() int64 { return int64(d.u64()) }

func (d *snapDec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *snapDec) bool() bool {
	v := d.u8()
	if d.err == nil && v > 1 {
		d.fail("corrupt boolean %d", v)
	}
	return v == 1
}

// count reads an element count and bounds it by the remaining input
// (each element needs at least elem encoded bytes), so a corrupt length
// field can never drive an unbounded allocation.
func (d *snapDec) count(elem int, what string) int {
	v := d.u32()
	if d.err != nil {
		return 0
	}
	if uint64(v)*uint64(elem) > uint64(len(d.b)) {
		d.fail("%s count %d exceeds the remaining %d bytes", what, v, len(d.b))
		return 0
	}
	return int(v)
}
