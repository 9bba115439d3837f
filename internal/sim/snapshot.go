package sim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"math"
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
//	network section                             (see codeNetwork)
//	run section, when flagged                   (see runState.code)
//	CRC-32C over everything above               u32
//
// The fingerprint is an FNV-64a hash of everything a snapshot is only
// meaningful relative to: the Config (minus Shards), the full link
// wiring, the terminal attachment, the routing and traffic names, the
// source fingerprint, and the fault liveness (the static plan's, or
// every epoch of the timeline). Restore refuses a snapshot whose
// fingerprint differs from the target network's — restoring onto the
// wrong machine is a typed error, not a corrupt simulation.

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
	size := n.snapshotSizeHint()
	if rs != nil {
		// The run section's fixed fields and accumulators take under 512
		// bytes, and each histogram bucket 8.
		size += 512
		if h := rs.res.Hist; h != nil {
			size += 8 * (len(h.Buckets()) + len(rs.res.MinHist.Buckets()) + len(rs.res.NonminHist.Buckets()))
		}
	}
	return n.encode(rs, size), nil
}

// encode walks the header and the sections into a buffer of size bytes
// and seals them with the CRC. A size that falls short costs a second
// walk at the exact size, which the first one measured, never bytes.
func (n *Network) encode(rs *runState, size int) []byte {
	fp := n.fp
	var flags uint8
	if rs != nil {
		flags = snapFlagRun
	}
	for {
		c := &snapCodec{b: make([]byte, size)}
		copy(c.b, snapMagic)
		off := le64(c, len(snapMagic), &fp)
		off = le8(c, off, &flags)
		off = n.codeNetwork(c, off)
		if rs != nil {
			off = rs.code(c, off)
		}
		if off+4 <= len(c.b) {
			return binary.LittleEndian.AppendUint32(c.b[:off], crc32.Checksum(c.b[:off], snapCRC))
		}
		size = off + 4
	}
}

// snapshotSizeHint bounds the encoded size of the header, the network
// section and the CRC from above, so encode allocates once and walks
// once. It sums the shapes codeNetwork walks, counting every
// credit-queue entry, and charges each in-flight packet the larger
// on-wire encoding.
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
	c := &snapCodec{b: body, dec: true}
	var fp uint64
	var flags uint8
	off := le64(c, len(snapMagic), &fp)
	off = le8(c, off, &flags)
	if want := n.fp; fp != want {
		return nil, &SnapshotError{Reason: fmt.Sprintf("fingerprint %016x does not match this network (%016x): different topology, config, routing, traffic or timeline", fp, want)}
	}
	if flags&^snapFlagRun != 0 {
		return nil, &SnapshotError{Reason: fmt.Sprintf("unknown flag bits %#x", flags)}
	}
	if flags&snapFlagRun == 0 && wantRun {
		return nil, &SnapshotError{Reason: "snapshot carries no run section (captured by Snapshot, not a RunCtx checkpoint)"}
	}
	off = n.codeNetwork(c, off)
	var rs *runState
	if flags&snapFlagRun != 0 {
		rs = &runState{}
		off = rs.code(c, off)
	}
	if c.ok(off) && off != len(c.b) {
		c.fail("%d trailing bytes after the last section", len(c.b)-off)
	}
	if c.err != nil {
		return nil, c.err
	}
	n.recount()
	if err := n.CheckFlowInvariants(); err != nil {
		return nil, &SnapshotError{Reason: "restored state breaks a flow invariant: " + err.Error()}
	}
	return rs, nil
}

// fingerprint hashes everything a snapshot is only meaningful relative
// to. Config.Shards is deliberately excluded: snapshots are
// shard-count independent. The inputs are final once New, SetSource
// and SetTimeline (which refuse to run after cycle 0) are done, so each
// of the three stores the hash in n.fp and Snapshot and Restore read
// that.
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

// codeNetwork walks the network section in wire order (encoding runs
// with the mailboxes drained). Decoding validates every count and index
// before use: a CRC-valid but adversarial input yields a typed error,
// never a panic or an unbounded allocation.
func (n *Network) codeNetwork(c *snapCodec, off int) int {
	// lastMove is kept as a global maximum (the stall detector only reads
	// the max); the drop and window counters are totals, decoded onto
	// shard 0 (they are only ever read summed).
	lastMove, dropped := n.maxLastMove(), n.totalDropped()
	injWin, ejWin := n.totalInjectedWindow(), n.totalEjectedWindow()
	off = le64(c, off, &n.now)
	off = c.f64(off, &n.load)
	off = c.bool(off, &n.measuring)
	off = c.bool(off, &n.countWindow)
	off = le64(c, off, &n.killedInFlight)
	off = le64(c, off, &n.rerouted)
	off = le64(c, off, &lastMove)
	off = le64(c, off, &dropped)
	off = le64(c, off, &injWin)
	off = le64(c, off, &ejWin)
	off = le32(c, off, &n.epochIdx)
	if c.dec && c.ok(off) {
		switch {
		case n.now < 0:
			c.fail("negative cycle %d", n.now)
		case math.IsNaN(n.load) || n.load < 0 || n.load > 1:
			c.fail("injection load %v out of range", n.load)
		case lastMove < 0 || lastMove > n.now:
			c.fail("last-movement cycle %d outside [0, %d]", lastMove, n.now)
		case n.killedInFlight < 0 || n.rerouted < 0 || dropped < 0 || injWin < 0 || ejWin < 0:
			c.fail("negative event counter")
		case n.epochs == nil && n.epochIdx != 0:
			c.fail("snapshot is mid-timeline (epoch %d) but this network has none", n.epochIdx)
		case n.epochs != nil && n.epochIdx >= len(n.epochs):
			c.fail("epoch index %d outside the timeline's %d epochs", n.epochIdx, len(n.epochs))
		case n.epochs != nil:
			// Adopt the governing epoch's view directly: liveness state is
			// restored field by field below, so the kill/rescue
			// reconciliation of applyEpoch must not run.
			n.topo.(SwitchedTopology).SetEpoch(n.epochs[n.epochIdx].View)
		}
		for i := range n.shards {
			n.shards[i].lastMove = lastMove
		}
		n.shards[0].dropped = dropped
		n.shards[0].injectedWindow = injWin
		n.shards[0].ejectedWindow = ejWin
	}

	off = c.shape(off, len(n.termRNG), "terminal count %d, network has %d")
	alive := 0
	for t := range n.termRNG {
		off = le64(c, off, &n.termRNG[t].state)
		off = le64(c, off, &n.termSeq[t])
		off = c.bool(off, &n.termAlive[t])
		if n.termAlive[t] {
			alive++
		}
	}
	off = le32(c, off, &n.aliveTerms)
	if c.dec && c.ok(off) && n.aliveTerms != alive {
		c.fail("alive-terminal count %d disagrees with the %d per-terminal flags", n.aliveTerms, alive)
	}

	// Arrival-process state: the per-terminal word count, then each
	// terminal's words. The source identity itself is covered by the
	// fingerprint, so a mismatched word count here means corruption.
	words := n.source.StateWords()
	off = c.shape(off, words, "source state is %d words/terminal, the installed source holds %d")
	var buf [maxSourceStateWords]uint64
	for t := 0; t < len(n.termRNG) && words > 0; t++ {
		if !c.dec {
			n.source.SaveState(t, buf[:words])
		}
		for i := range buf[:words] {
			off = le64(c, off, &buf[i])
		}
		if c.dec && c.ok(off) {
			if err := n.source.LoadState(t, buf[:words]); err != nil {
				c.fail("source state for terminal %d: %v", t, err)
			}
		}
	}

	off = c.shape(off, len(n.routers), "router count %d, network has %d")
	for ri := range n.routers {
		off = n.codeRouter(c, off, ri)
	}
	off = c.shape(off, len(n.links), "link count %d, network has %d")
	return n.codeLinks(c, off)
}

// codeRouter walks router ri's part of the network section: its dead
// flag, per-port sensor state and send timestamps, per-slot occupancy
// and credits, then its packet queues.
func (n *Network) codeRouter(c *snapCodec, off, ri int) int {
	r := &n.routers[ri]
	sh := n.shardForRouter(ri)
	dead := n.routerDead != nil && n.routerDead[ri]
	off = c.bool(off, &dead)
	if c.dec && c.ok(off) {
		if n.routerDead != nil {
			n.routerDead[ri] = dead
		} else if dead {
			c.fail("router %d marked dead but this network has no timeline", ri)
		}
	}
	for p := 0; p < r.radix; p++ {
		off = le32(c, off, &r.outRR[p])
		off = le64(c, off, &r.td[p])
		off = le64(c, off, &r.crossTd[p])
		if c.dec && c.ok(off) && (r.outRR[p] < 0 || r.outRR[p] >= int32(r.vcs) || r.td[p] < 0 || r.crossTd[p] < 0) {
			c.fail("router %d port %d sensor state out of range", ri, p)
		}
		off = c.creditQueue(off, &r.ctq[p], r.vcs)
		if c.dec && c.ok(off) && r.isTerm[p] && r.ctq[p].len() > 0 {
			c.fail("router %d terminal port %d holds send timestamps", ri, p)
		}
	}
	for i := 0; i < r.radix*r.vcs; i++ {
		off = le32(c, off, &r.inOcc[i])
		off = le32(c, off, &r.credits[i])
		if c.dec && c.ok(off) && (r.inOcc[i] < 0 || r.inOcc[i] > int32(r.depth) || r.credits[i] < 0 || r.credits[i] > int32(r.depth)) {
			c.fail("router %d slot %d occupancy/credits outside [0, %d]", ri, i, r.depth)
		}
	}
	for p := 0; p < r.radix; p++ {
		if r.isTerm[p] {
			off = c.pktQueues(off, n, sh, r, r.srcQ[p:p+1], atSource)
		}
	}
	off = c.pktQueues(off, n, sh, r, r.waitQ, atWait)
	return c.pktQueues(off, n, sh, r, r.outQ, atOut)
}

// codeLinks walks the links' part of the network section: for each
// link, its dead flag, the flits riding it (delivery cycle, VC, packet
// record) and its credit line.
func (n *Network) codeLinks(c *snapCodec, off int) int {
	for li := range n.links {
		l := &n.links[li]
		// Flits riding link l live in the arena of the shard owning l.dst.
		sh := n.shardForRouter(l.dst)
		off = c.bool(off, &l.dead)
		cnt := l.flits.n
		off = le32(c, off, &cnt)
		if c.dec {
			cnt = c.bound(off, cnt, 8+1+packetWire, "link flit")
		}
		prev := int64(0)
		for i := 0; i < cnt; i++ {
			var e flitEntry
			if !c.dec {
				e = l.flits.buf[(l.flits.head+i)&(len(l.flits.buf)-1)]
			}
			off = le64(c, off, &e.at)
			off = le8(c, off, &e.vc)
			if !c.dec {
				w := sh.ar.p[e.ref].onWire()
				off = c.packet(off, &w)
				continue
			}
			if c.ok(off) {
				if int(e.vc) >= n.cfg.VCs {
					c.fail("link %d flit VC %d out of range", li, e.vc)
				} else if e.at < prev {
					c.fail("link %d flit %d at cycle %d, before %d", li, i, e.at, prev)
				}
				prev = e.at
			}
			if off, e.ref = c.admit(off, n, sh, nil, atWire); e.ref != nilRef {
				l.flits.push(e)
			}
		}
		off = c.creditQueue(off, &l.credits, n.cfg.VCs)
	}
	return off
}

// packet codes one packet record. Records are the bulk of a snapshot,
// so the walk runs over the record's own window (a spill buffer when
// it does not fit), which makes every field offset a constant.
func (c *snapCodec) packet(off int, p *pkt) int {
	var spill [packetWire]byte
	rec, dec := spill[:], c.dec
	if off+packetWire <= len(c.b) {
		rec = c.b[off : off+packetWire]
	}
	k := fix64(rec, 0, dec, &p.id)
	k = fix64(rec, k, dec, &p.seed)
	k = fix32(rec, k, dec, &p.src)
	k = fix32(rec, k, dec, &p.dst)
	k = fix8(rec, k, dec, &p.flags)
	k = fix32(rec, k, dec, &p.interGrp)
	k = fix16(rec, k, dec, &p.nextPort)
	k = fix8(rec, k, dec, &p.nextVC)
	k = fix16(rec, k, dec, &p.inPort)
	k = fix8(rec, k, dec, &p.bufVC)
	k = fix64(rec, k, dec, &p.arrive)
	k = fix64(rec, k, dec, &p.create)
	k = fix64(rec, k, dec, &p.inject)
	k = fix16(rec, k, dec, &p.hops)
	return off + k
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

// onWire returns the record as a flit riding a link encodes it: the
// in-buffer fields (arrive, inPort, bufVC) are rewritten at delivery and
// hold don't-care residue until then, left by the router the flit
// departed, and the encoding must not depend on where it came from.
func (p pkt) onWire() pkt {
	p.inPort, p.bufVC, p.arrive = 0, 0, 0
	return p
}

// admit decodes one packet record into a fresh slot of sh's arena and
// counts it in the shard's in-flight accounting, returning its ref, or
// nilRef once the walk has failed. at is where the packet sits and r
// the router whose queue holds it (nil on a wire). Beyond ranges, the
// state must be one the engine produces at that place (routing reads it
// unchecked on the next Step), and its port/VC fields must fit r.
func (c *snapCodec) admit(off int, n *Network, sh *shard, r *Router, at pktAt) (int, int32) {
	var p pkt
	off = c.packet(off, &p)
	if !c.ok(off) {
		return off, nilRef
	}
	terms := n.topo.Terminals()
	minimal := p.flags&pfMinimal != 0
	switch {
	case p.flags&^(pfMinimal|pfPhase1|pfDecided|pfMeasured) != 0:
		c.fail("packet %#x has unknown flag bits %#x", p.id, p.flags)
	case p.src < 0 || int(p.src) >= terms || p.dst < 0 || int(p.dst) >= terms:
		c.fail("packet %#x src/dst outside the %d terminals", p.id, terms)
	case p.hops < 0:
		c.fail("packet %#x negative hop count", p.id)
	case at == atSource:
		if p.flags&(pfDecided|pfMinimal|pfPhase1) != 0 || p.interGrp != -1 {
			c.fail("source-queued packet %#x carries a routing decision", p.id)
		}
	case p.flags&pfDecided == 0:
		c.fail("packet %#x left its source queue undecided", p.id)
	case minimal && (p.flags&pfPhase1 == 0 || p.interGrp != -1):
		c.fail("minimal packet %#x has intermediate group %d or is not in phase 1", p.id, p.interGrp)
	case !minimal && (p.interGrp < 0 || int(p.interGrp) >= n.groupCount()):
		c.fail("non-minimal packet %#x intermediate group %d outside [0, %d)", p.id, p.interGrp, n.groupCount())
	case at == atWait && p.inPort < 0:
		c.fail("packet %#x waits at the crossbar without an input-buffer slot", p.id)
	case r != nil && (int(p.nextPort) < 0 || int(p.nextPort) >= r.radix || int(p.nextVC) < 0 || int(p.nextVC) >= r.vcs ||
		int(p.inPort) < -1 || int(p.inPort) >= r.radix || int(p.bufVC) < 0 || int(p.bufVC) >= r.vcs):
		c.fail("packet %#x port/VC fields out of range for router %d", p.id, r.ID)
	}
	if c.err != nil {
		return off, nilRef
	}
	ref := sh.ar.alloc()
	sh.ar.p[ref] = p
	sh.inFlight++
	if p.flags&pfMeasured != 0 {
		sh.outstanding++
	}
	return off, ref
}

// pktQueues codes the packet queues qs of router r in order, each as
// its count and then its records head-to-tail; decoding homes the
// packets in sh.
func (c *snapCodec) pktQueues(off int, n *Network, sh *shard, r *Router, qs []pktQueue, at pktAt) int {
	for qi := range qs {
		q := &qs[qi]
		cnt := q.n
		off = le32(c, off, &cnt)
		if !c.dec {
			for i := 0; i < cnt; i++ {
				off = c.packet(off, &sh.ar.p[q.buf[(q.head+i)&(len(q.buf)-1)]])
			}
			continue
		}
		cnt = c.bound(off, cnt, packetWire, "queued packet")
		for i := 0; i < cnt; i++ {
			var ref int32
			if off, ref = c.admit(off, n, sh, r, at); ref != nilRef {
				q.push(ref)
			}
		}
	}
	return off
}

// creditQueue codes a credit delay line: its count, its monotone-
// delivery clamp (lastAt outlives the entries, so it is state of its
// own), then the entries head-to-tail. Decoding pushes onto a fresh
// queue, which would silently clamp a negative or out-of-order entry
// and wrap one past the packed range; such lines are rejected instead:
// every entry lies in [0, maxCreditAt), no lower than the one before it
// and no higher than the decoded clamp.
func (c *snapCodec) creditQueue(off int, q *creditQueue, vcs int) int {
	cnt, lastAt := q.n, q.lastAt
	off = le32(c, off, &cnt)
	if c.dec {
		cnt = c.bound(off, cnt, 1+8, "queued credit")
	}
	off = le64(c, off, &lastAt)
	if c.dec && c.ok(off) && (lastAt < 0 || lastAt >= maxCreditAt) {
		c.fail("credit clamp %d outside [0, 2^55)", lastAt)
	}
	prev := int64(0)
	for i := 0; i < cnt; i++ {
		var vc uint8
		var at int64
		if !c.dec {
			vc, at = q.entry(i)
		}
		off = le8(c, off, &vc)
		off = le64(c, off, &at)
		if c.dec && c.ok(off) {
			if int(vc) >= vcs {
				c.fail("credit VC %d out of range", vc)
			} else if at < prev || at > lastAt {
				c.fail("credit %d at cycle %d outside [%d, %d]", i, at, prev, lastAt)
			} else {
				q.push(vc, at)
				prev = at
			}
		}
	}
	if c.dec {
		// The clamp holds back later deliveries even once the entries
		// drain, so it is restored explicitly, after the pushes.
		q.lastAt = lastAt
	}
	return off
}

// code walks the run section: the run parameters (so resume can refuse
// a mismatched RunConfig), the phase position, the counters, and every
// accumulator runState.eject feeds. Decoding rejects measurement
// state no run produces: a Latency, MinLatency or NonminLatency sample
// count, or a histogram total, that disagrees with the counters, and a
// histogram whose width is not the run's or whose buckets do not sum to
// its total.
func (st *runState) code(c *snapCodec, off int) int {
	rc, res := &st.rc, &st.res
	off = c.f64(off, &rc.Load)
	off = le64(c, off, &rc.WarmupCycles)
	off = le64(c, off, &rc.MeasureCycles)
	off = le64(c, off, &rc.DrainCycles)
	off = c.bool(off, &rc.Histogram)
	off = le64(c, off, &rc.HistWidth)
	off = le64(c, off, &rc.StallLimit)
	off = le8(c, off, &st.phaseIdx)
	off = le64(c, off, &st.iterDone)
	off = c.f64(off, &res.Offered)
	off = c.f64(off, &res.Accepted)
	off = le32(c, off, &res.AliveTerminals)
	off = le64(c, off, &st.dropped0)
	off = le64(c, off, &st.killed0)
	off = le64(c, off, &st.rerouted0)
	off = le64(c, off, &st.minCount)
	off = le64(c, off, &st.totalCount)
	if c.dec && c.ok(off) {
		st.validate(c)
	}
	nonmin := st.totalCount - st.minCount
	off = c.accumulator(off, &res.Latency, st.totalCount)
	off = c.accumulator(off, &res.MinLatency, st.minCount)
	off = c.accumulator(off, &res.NonminLatency, nonmin)
	hasHist := res.Hist != nil
	off = c.bool(off, &hasHist)
	if c.dec && c.ok(off) && hasHist != rc.Histogram {
		c.fail("histogram section does not match the checkpointed run parameters")
	}
	if hasHist {
		off = c.histogram(off, &res.Hist, rc.HistWidth, st.totalCount)
		off = c.histogram(off, &res.MinHist, rc.HistWidth, st.minCount)
		off = c.histogram(off, &res.NonminHist, rc.HistWidth, nonmin)
	}
	return off
}

// validate checks decoded run parameters, phase position and counters.
func (st *runState) validate(c *snapCodec) {
	if err := st.rc.Validate(); err != nil {
		c.fail("checkpointed run parameters invalid: %v", err)
		return
	}
	var limit int
	switch st.phaseIdx {
	case phaseWarmupIdx:
		limit = st.rc.WarmupCycles
	case phaseMeasureIdx:
		limit = st.rc.MeasureCycles
	case phaseDrainIdx:
		limit = st.rc.DrainCycles
	default:
		c.fail("unknown run phase %d", st.phaseIdx)
		return
	}
	switch {
	case st.iterDone < 0 || st.iterDone >= int64(limit):
		c.fail("phase position %d outside the %s phase's %d cycles", st.iterDone, Phase(st.phaseIdx), limit)
	case st.res.AliveTerminals < 1:
		c.fail("checkpointed run has %d alive terminals", st.res.AliveTerminals)
	case st.dropped0 < 0 || st.killed0 < 0 || st.rerouted0 < 0 || st.minCount < 0 || st.totalCount < 0 || st.minCount > st.totalCount:
		c.fail("checkpointed run counters out of range")
	}
}

// accumulator codes one Accumulator; decoding checks its sample count
// against the samples the run's counters give it.
func (c *snapCodec) accumulator(off int, a *Accumulator, samples int64) int {
	off = le64(c, off, &a.n)
	off = c.f64(off, &a.mean)
	off = c.f64(off, &a.m2)
	off = c.f64(off, &a.min)
	off = c.f64(off, &a.max)
	off = c.bool(off, &a.initedBoth)
	if c.dec && c.ok(off) && a.n != samples {
		c.fail("measurement accumulator holds %d samples, the run counted %d", a.n, samples)
	}
	return off
}

// histogram codes one Histogram: its width, total and bucket count,
// then the buckets. Decoding allocates it and checks it against the
// run's bucket width and sample count: every bucket is non-negative and
// they sum to the total.
func (c *snapCodec) histogram(off int, h **Histogram, width, samples int64) int {
	if c.dec {
		*h = &Histogram{}
	}
	hg := *h
	buckets := len(hg.count)
	off = le64(c, off, &hg.Width)
	off = le64(c, off, &hg.total)
	off = le64(c, off, &buckets)
	if c.dec {
		if c.ok(off) && hg.Width < 1 {
			c.fail("latency histogram bucket width < 1")
		}
		hg.count = make([]int64, c.bound(off, buckets, 8, "latency histogram bucket"))
	}
	for i := range hg.count {
		off = le64(c, off, &hg.count[i])
	}
	if !c.dec || !c.ok(off) {
		return off
	}
	sum := int64(0)
	for _, k := range hg.count {
		if k < 0 || k > hg.total-sum {
			sum = -1 // a negative bucket, or buckets summing past the total
			break
		}
		sum += k
	}
	switch {
	case hg.Width != width:
		c.fail("latency histogram bucket width %d, the run's is %d", hg.Width, width)
	case hg.total != samples:
		c.fail("latency histogram holds %d samples, the run counted %d", hg.total, samples)
	case sum != hg.total:
		c.fail("latency histogram buckets do not sum to its total %d, or one is negative", hg.total)
	}
	return off
}

// snapCodec walks dfly-snap/1 over a fixed buffer b, writing each field
// when encoding and reading it when decoding (dec). A section method
// names each field once, in wire order; its decode-only work
// (validation, allocation, installing what it read) sits in dec blocks.
// The offset travels by value (each method takes the offset its fields
// start at and returns the one past them), so it stays in a register.
// A field that does not fit in b is skipped but the offset advances, so
// the field coders make no call and inline: on encoding the overrun
// sizes a second walk; on decoding ok turns it (or a corrupt boolean)
// into the first, sticky error before any decoded value is used.
type snapCodec struct {
	b       []byte
	dec     bool
	badBool bool // decoding read a boolean byte other than 0 or 1
	err     error
}

// ok reports whether a decoding walk at off is sound so far: until a
// read runs past the input or a rule fails. Encoding never calls it.
func (c *snapCodec) ok(off int) bool {
	if c.err == nil && (c.badBool || off > len(c.b)) {
		c.settle(off)
	}
	return c.err == nil
}

// settle records the failure ok detected.
func (c *snapCodec) settle(off int) {
	if c.badBool {
		c.fail("corrupt boolean")
	} else {
		c.fail("truncated (%d bytes; the walk reads %d)", len(c.b), off)
	}
}

// fail records the first decode failure as a *SnapshotError.
func (c *snapCodec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = &SnapshotError{Reason: fmt.Sprintf(format, args...)}
	}
}

// bound checks a count decoded before off against the input left (each
// element needs at least elem encoded bytes), so a corrupt count can
// never drive an unbounded allocation. It returns 0 once the walk has
// failed.
func (c *snapCodec) bound(off, n, elem int, what string) int {
	if c.ok(off) && uint64(n) > uint64(len(c.b)-off)/uint64(elem) {
		c.fail("%s count %d exceeds the remaining %d bytes", what, n, len(c.b)-off)
	}
	if c.err != nil {
		return 0
	}
	return n
}

// shape codes a count this network fixes; decoding rejects any other
// value with msg (formatted with the decoded and the network's count).
func (c *snapCodec) shape(off, want int, msg string) int {
	got := want
	off = le32(c, off, &got)
	if c.dec && c.ok(off) && got != want {
		c.fail(msg, got, want)
	}
	return off
}

func (c *snapCodec) f64(off int, v *float64) int {
	x := math.Float64bits(*v)
	off = le64(c, off, &x)
	*v = math.Float64frombits(x)
	return off
}

func (c *snapCodec) bool(off int, v *bool) int {
	var x uint8
	if *v {
		x = 1
	}
	off = le8(c, off, &x)
	*v = x == 1
	c.badBool = c.badBool || x > 1
	return off
}

func le8[T ~uint8 | ~int8](c *snapCodec, off int, v *T) int { return fix8(c.b, off, c.dec, v) }
func le32[T ~int32 | ~int](c *snapCodec, off int, v *T) int { return fix32(c.b, off, c.dec, v) }
func le64[T ~int64 | ~uint64 | ~int](c *snapCodec, off int, v *T) int {
	return fix64(c.b, off, c.dec, v)
}

// The fixed-width field coders: *v travels little-endian at b[off:],
// written when encoding and read when decoding, if it fits. They return
// the offset past the field.

func fix8[T ~uint8 | ~int8](b []byte, off int, dec bool, v *T) int {
	if off < len(b) {
		if dec {
			*v = T(b[off])
		} else {
			b[off] = uint8(*v)
		}
	}
	return off + 1
}

func fix16[T ~int16](b []byte, off int, dec bool, v *T) int {
	if off+2 <= len(b) {
		if dec {
			*v = T(binary.LittleEndian.Uint16(b[off : off+2]))
		} else {
			binary.LittleEndian.PutUint16(b[off:off+2], uint16(*v))
		}
	}
	return off + 2
}

func fix32[T ~int32 | ~int](b []byte, off int, dec bool, v *T) int {
	if off+4 <= len(b) {
		if dec {
			*v = T(binary.LittleEndian.Uint32(b[off : off+4]))
		} else {
			binary.LittleEndian.PutUint32(b[off:off+4], uint32(*v))
		}
	}
	return off + 4
}

func fix64[T ~int64 | ~uint64 | ~int](b []byte, off int, dec bool, v *T) int {
	if off+8 <= len(b) {
		if dec {
			*v = T(binary.LittleEndian.Uint64(b[off : off+8]))
		} else {
			binary.LittleEndian.PutUint64(b[off:off+8], uint64(*v))
		}
	}
	return off + 8
}
