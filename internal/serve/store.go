package serve

// Durable state for a Server (Config.DataDir):
//
//	<data-dir>/journal.log          write-ahead journal, one JSON record per line
//	<data-dir>/journal.quarantine   corrupt journal lines, moved aside on replay
//	<data-dir>/results/<hash>.json  content-addressed finished reports
//	<data-dir>/checkpoints/<id>.snap  latest engine checkpoint of a running job
//
// The journal is the source of truth for which jobs exist and where
// they got to. Every append but a "running" record's (below) is
// fsync'd under the store lock, and the "accepted" record for a
// submission is durable before the client sees its 202 — a job the
// server acknowledged is never lost. A cache hit's
// "accepted" and "done" records share one append and one fsync, both
// durable before its 200. Result and checkpoint files are written via
// a same-directory temp file, fsync and rename, so a reader (including
// the replaying next process) only ever sees complete files; a crash
// mid-write leaves a *.tmp* that the next open sweeps.
//
// Job workers write none of this themselves. A worker hands the
// server's one persister goroutine (exec.go) a job's "running" record
// when it starts the job and the whole settlement when the simulation
// returns, and picks up the next job at once. The persister runs these
// steps one at a time in hand-over order, so each job's records read,
// in journal order: accepted → running → (retry → running)… →
// terminal. The "accepted" record is journaled under the job's lock,
// which the worker's begin takes, so nothing of the job precedes it;
// a worker that picks the job up that early waits out the fsync. The
// "running" record alone is appended without a fsync: replay treats
// queued and running alike, and the job's next record makes it durable.
// What a client may infer: a job's SSE feed closes before its outcome
// is durable, but a status or report read that shows the job terminal
// returns only after its result file and terminal record are on disk,
// because both are written under the job's lock in the terminal
// transition itself.
//
// Replay tolerates exactly the damage a crash can cause. A torn final
// line (append cut mid-record) is dropped with a warning. A corrupt or
// version-mismatched line anywhere else is moved to journal.quarantine
// with a warning and counted — never silently skipped, never fatal.
// After any such surgery the journal is rewritten atomically from the
// surviving records, so the damage is handled once, not on every
// restart. A "state" record whose "accepted" record was quarantined is
// an orphan and is ignored; so is one that precedes its job's
// "accepted" record, which a journal from an older server can hold (it
// journaled "accepted" after the queue send, so a fast job's later
// records could land first) — the replayed job simply re-runs, and
// determinism makes the re-run byte-identical.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// journalVersion is the record format spoken by this build. A record
// carrying any other version is quarantined on replay, like corruption:
// the reader that understands it can pick it out of the quarantine
// file, and this reader never misinterprets it.
const journalVersion = 1

// ckptMagic heads every checkpoint file. The engine snapshot inside
// carries its own "dfly-snap/1" version and CRC; this outer header
// binds the snapshot to a job id and spec hash so a checkpoint is
// never resumed under the wrong job.
const ckptMagic = "dfly-ckpt/1\n"

// ErrCorruptRecord is wrapped by every decode failure of a journal
// record or checkpoint file: corruption and version mismatches are
// typed, recoverable conditions — quarantine or re-run — never panics.
var ErrCorruptRecord = errors.New("serve: corrupt durable record")

// errStoreClosed reports a durable write attempted after the store
// detached (clean shutdown or simulated crash).
var errStoreClosed = errors.New("serve: store is closed")

// The journal record types.
const (
	recAccepted = "accepted" // a submission was acknowledged; carries the full spec
	recState    = "state"    // a state transition (running, or a terminal state)
	recRetry    = "retry"    // a transient failure scheduled a re-execution
)

// record is one journal line. Type decides which fields are meaningful.
type record struct {
	V       int      `json:"v"`
	Type    string   `json:"type"`
	ID      string   `json:"id"`
	TS      int64    `json:"ts_unix_ms,omitempty"`
	Spec    *JobSpec `json:"spec,omitempty"`
	Hash    string   `json:"hash,omitempty"`
	State   State    `json:"state,omitempty"`
	ErrKind string   `json:"error_kind,omitempty"`
	Err     string   `json:"error,omitempty"`
	Attempt int      `json:"attempt,omitempty"`
	Cached  bool     `json:"cached,omitempty"`
}

// decodeRecord parses and validates one journal line. Every rejection
// wraps ErrCorruptRecord; nothing here panics, and no corrupt input can
// drive an allocation beyond the line's own length.
func decodeRecord(line []byte) (record, error) {
	var r record
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, fmt.Errorf("%w: %v", ErrCorruptRecord, err)
	}
	if dec.More() {
		return r, fmt.Errorf("%w: trailing data after the record", ErrCorruptRecord)
	}
	if r.V != journalVersion {
		return r, fmt.Errorf("%w: record version %d (this build speaks %d)", ErrCorruptRecord, r.V, journalVersion)
	}
	if r.ID == "" {
		return r, fmt.Errorf("%w: record without a job id", ErrCorruptRecord)
	}
	switch r.Type {
	case recAccepted:
		if r.Spec == nil || r.Hash == "" {
			return r, fmt.Errorf("%w: accepted record missing its spec or hash", ErrCorruptRecord)
		}
	case recState:
		switch r.State {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
		default:
			return r, fmt.Errorf("%w: unknown state %q", ErrCorruptRecord, r.State)
		}
	case recRetry:
		if r.Attempt <= 0 {
			return r, fmt.Errorf("%w: retry record with attempt %d", ErrCorruptRecord, r.Attempt)
		}
	default:
		return r, fmt.Errorf("%w: unknown record type %q", ErrCorruptRecord, r.Type)
	}
	return r, nil
}

// replayedJob is one job reconstructed from the journal: its spec plus
// the last state the dead process recorded for it.
type replayedJob struct {
	id        string
	spec      JobSpec
	hash      string
	state     State
	errKind   string
	errMsg    string
	cached    bool
	attempt   int
	submitted int64 // unix ms from the accepted record
}

// replayResult is everything openStore recovered from the journal.
type replayResult struct {
	jobs    map[string]*replayedJob
	order   []string // accepted order
	maxID   uint64   // highest numeric job id seen, to continue the sequence
	records int64    // valid records replayed
}

func (rep *replayResult) apply(r record) {
	rep.records++
	switch r.Type {
	case recAccepted:
		if _, dup := rep.jobs[r.ID]; dup {
			return
		}
		rep.jobs[r.ID] = &replayedJob{
			id: r.ID, spec: *r.Spec, hash: r.Hash,
			state: StateQueued, submitted: r.TS,
		}
		rep.order = append(rep.order, r.ID)
		if n := idNumber(r.ID); n > rep.maxID {
			rep.maxID = n
		}
	case recState:
		j := rep.jobs[r.ID]
		if j == nil {
			return // orphan (see the package comment above)
		}
		j.state, j.errKind, j.errMsg, j.cached = r.State, r.ErrKind, r.Err, r.Cached
	case recRetry:
		if j := rep.jobs[r.ID]; j != nil {
			j.attempt = r.Attempt
		}
	}
}

// idNumber extracts the sequence number from a "j%06d" job id.
func idNumber(id string) uint64 {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "j"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// store owns a Server's durable state. All methods are safe for
// concurrent use; after detach every write is refused with
// errStoreClosed, which is exactly the view a dead process leaves.
type store struct {
	dir  string
	logf func(format string, args ...any)

	mu          sync.Mutex
	f           *os.File // journal append handle; nil once detached
	closed      bool
	quarantined int64
}

// openStore prepares dir, replays the journal, and leaves the store
// ready for appends.
func openStore(dir string, logf func(string, ...any)) (*store, *replayResult, error) {
	st := &store{dir: dir, logf: logf}
	for _, d := range []string{dir, filepath.Join(dir, "results"), filepath.Join(dir, "checkpoints")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, fmt.Errorf("serve: data dir: %w", err)
		}
	}
	st.sweepTempFiles()
	rep, err := st.replayJournal()
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(st.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: open journal: %w", err)
	}
	st.f = f
	return st, rep, nil
}

func (st *store) journalPath() string        { return filepath.Join(st.dir, "journal.log") }
func (st *store) resultPath(h string) string { return filepath.Join(st.dir, "results", h+".json") }
func (st *store) checkpointPath(id string) string {
	return filepath.Join(st.dir, "checkpoints", id+".snap")
}

// sweepTempFiles removes *.tmp* debris a crash left mid-atomic-write.
// The rename never happened, so nothing referenced these files.
func (st *store) sweepTempFiles() {
	for _, sub := range []string{".", "results", "checkpoints"} {
		matches, _ := filepath.Glob(filepath.Join(st.dir, sub, "*.tmp*"))
		for _, m := range matches {
			st.logf("serve: sweeping torn temp file %s (crash mid-write)", m)
			os.Remove(m)
		}
	}
}

// replayJournal reads journal.log into a replayResult, quarantining
// corrupt lines and dropping a torn tail. If anything had to be cut,
// the journal is rewritten atomically from the surviving records.
func (st *store) replayJournal() (*replayResult, error) {
	rep := &replayResult{jobs: make(map[string]*replayedJob)}
	raw, err := os.ReadFile(st.journalPath())
	if errors.Is(err, os.ErrNotExist) {
		return rep, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: read journal: %w", err)
	}
	var valid [][]byte
	dirty := false
	body := raw
	for {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			break
		}
		line := body[:nl]
		body = body[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			dirty = true
			continue
		}
		r, err := decodeRecord(line)
		if err != nil {
			st.quarantine(line, err)
			dirty = true
			continue
		}
		rep.apply(r)
		valid = append(valid, line)
	}
	if len(body) > 0 {
		st.logf("serve: journal: dropping torn %d-byte tail (crash mid-append)", len(body))
		dirty = true
	}
	if dirty {
		var buf bytes.Buffer
		for _, l := range valid {
			buf.Write(l)
			buf.WriteByte('\n')
		}
		if err := WriteFileAtomic(st.journalPath(), buf.Bytes()); err != nil {
			return nil, fmt.Errorf("serve: rewrite journal after repair: %w", err)
		}
	}
	return rep, nil
}

// quarantine moves one corrupt journal line aside with a warning.
func (st *store) quarantine(line []byte, cause error) {
	st.quarantined++
	st.logf("serve: journal: quarantined corrupt record: %v", cause)
	qf, err := os.OpenFile(filepath.Join(st.dir, "journal.quarantine"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		st.logf("serve: journal: quarantine file: %v", err)
		return
	}
	defer qf.Close()
	qf.Write(line)
	qf.Write([]byte{'\n'})
}

func (st *store) quarantinedCount() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.quarantined
}

// appendRecords journals records in one write. With sync it fsyncs
// before returning: when that succeeds every one of them survives any
// crash. Without, they become durable with the next synced append (an
// fsync covers every byte written to the file before it).
func (st *store) appendRecords(sync bool, rs ...record) error {
	var data []byte
	for _, r := range rs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		data = append(append(data, line...), '\n')
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || st.f == nil {
		return errStoreClosed
	}
	if _, err := st.f.Write(data); err != nil {
		return err
	}
	if !sync {
		return nil
	}
	return st.f.Sync()
}

// detach stops all durable writes and closes the journal. Used by the
// clean shutdown and by the crash simulation alike: afterwards the
// on-disk state is frozen exactly as a dead process would leave it.
func (st *store) detach() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closed = true
	if st.f != nil {
		st.f.Close()
		st.f = nil
	}
}

func (st *store) detached() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.closed
}

// writeResult persists a finished report under its content address.
// Results for the same hash are byte-identical by the engine's
// determinism, so an existing file is already correct.
func (st *store) writeResult(hash string, report []byte) error {
	if st.detached() {
		return errStoreClosed
	}
	path := st.resultPath(hash)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	return WriteFileAtomic(path, report)
}

func (st *store) readResult(hash string) ([]byte, error) {
	return os.ReadFile(st.resultPath(hash))
}

// ckptMeta is the JSON line between a checkpoint file's magic and its
// engine snapshot.
type ckptMeta struct {
	ID   string `json:"id"`
	Hash string `json:"hash"`
}

// writeCheckpoint atomically replaces the job's checkpoint file with a
// fresh engine snapshot. The previous checkpoint stays valid until the
// rename lands, so a crash at any instant leaves a usable file.
func (st *store) writeCheckpoint(id, hash string, snap []byte) error {
	if st.detached() {
		return errStoreClosed
	}
	meta, err := json.Marshal(ckptMeta{ID: id, Hash: hash})
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(ckptMagic)+len(meta)+1+len(snap))
	buf = append(buf, ckptMagic...)
	buf = append(buf, meta...)
	buf = append(buf, '\n')
	buf = append(buf, snap...)
	return WriteFileAtomic(st.checkpointPath(id), buf)
}

// parseCheckpoint splits a checkpoint file into its metadata and the
// engine snapshot. Only the outer framing is validated here — the
// snapshot's own magic and CRC are checked by the engine on restore.
func parseCheckpoint(data []byte) (id, hash string, snap []byte, err error) {
	if !bytes.HasPrefix(data, []byte(ckptMagic)) {
		return "", "", nil, fmt.Errorf("%w: not a dfly-ckpt/1 file", ErrCorruptRecord)
	}
	rest := data[len(ckptMagic):]
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return "", "", nil, fmt.Errorf("%w: checkpoint missing its metadata line", ErrCorruptRecord)
	}
	var m ckptMeta
	if err := json.Unmarshal(rest[:nl], &m); err != nil {
		return "", "", nil, fmt.Errorf("%w: checkpoint metadata: %v", ErrCorruptRecord, err)
	}
	if m.ID == "" || m.Hash == "" {
		return "", "", nil, fmt.Errorf("%w: checkpoint metadata incomplete", ErrCorruptRecord)
	}
	return m.ID, m.Hash, rest[nl+1:], nil
}

// readCheckpoint loads and validates the job's checkpoint framing.
func (st *store) readCheckpoint(id string) (hash string, snap []byte, err error) {
	data, err := os.ReadFile(st.checkpointPath(id))
	if err != nil {
		return "", nil, err
	}
	cid, hash, snap, err := parseCheckpoint(data)
	if err != nil {
		return "", nil, err
	}
	if cid != id {
		return "", nil, fmt.Errorf("%w: checkpoint names job %s, but the file belongs to %s", ErrCorruptRecord, cid, id)
	}
	return hash, snap, nil
}

// removeCheckpoint deletes a terminal job's checkpoint. A detached
// store leaves it in place — exactly what a crash would do.
func (st *store) removeCheckpoint(id string) {
	if st.detached() {
		return
	}
	os.Remove(st.checkpointPath(id))
}

// WriteFileAtomic replaces path with data via a same-directory temp
// file, fsync'd before the rename: readers (the next process's replay,
// a dfly-sim -resume) only ever observe complete files, even if the
// writer dies mid-write.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
