// Package journal is the crash-safety substrate under long sweep
// campaigns: an append-only write-ahead journal of per-point execution
// records, a reader that tolerates the torn tail a SIGKILL leaves behind,
// and an atomic file writer for final artifacts.
//
// The journal is a text file of independent, CRC-framed records, one per
// line:
//
//	j1 <crc32c-hex8> <record-json>\n
//
// Records are appended in execution order: one campaign header naming the
// point set, then a start record per attempt and one done record per
// finished point carrying the point's full serialised result and its
// SHA-256 outcome hash. Because every record is self-framed and written
// before the call that appends it returns, a process killed at ANY byte
// offset leaves a journal whose valid prefix is exactly the set of
// completed points — the half-written last record is the normal crash
// signature, not corruption, and Load drops it silently. A framing or
// checksum failure anywhere before the tail IS corruption and comes back
// as an error.
//
// Records are made durable by group commit (see Writer): one background
// fsync at a time covers every record written before it started. So a
// process kill loses nothing, and an OS crash or power loss loses at most
// the done records written since the last completed sync; those points
// re-run on resume and come out byte-identical. Writer.Close returns only
// once everything written is synced.
//
// The journal deliberately stores results, not just outcome hashes: a
// resumed campaign re-serialises completed points from their journal
// records, so the final artifacts are byte-identical to an uninterrupted
// run without re-simulating anything.
package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// Op is a record's type tag.
type Op string

const (
	// OpCampaign is the journal header: the campaign key (a hash of the
	// fully-expanded point set) and the point count.
	OpCampaign Op = "campaign"
	// OpStart marks one execution attempt of a point as in flight. A start
	// without a matching done means the process died mid-point; resume
	// re-runs it.
	OpStart Op = "start"
	// OpDone is the durable per-point outcome: attempt count, outcome
	// class, violation kind if any, outcome hash and the full result.
	OpDone Op = "done"
)

// Outcome classifies a done record.
type Outcome string

const (
	// OutcomeOK is a clean result.
	OutcomeOK Outcome = "ok"
	// OutcomeFailed is a transient failure that exhausted its retry
	// budget (wall-clock budget, barrier stall, recovered panic).
	OutcomeFailed Outcome = "failed"
	// OutcomeQuarantined is a deterministic failure (deadlock,
	// conservation, invalid configuration): retrying cannot change it, so
	// the point is quarantined on its first attempt.
	OutcomeQuarantined Outcome = "quarantined"
)

// Record is one journal entry. Unused fields stay empty per Op.
type Record struct {
	Op  Op     `json:"op"`
	Key string `json:"key"`
	// Points is the campaign's point count (OpCampaign only).
	Points int `json:"points,omitempty"`
	// Attempt is the 1-based execution attempt (OpStart: the attempt
	// being dispatched; OpDone: the attempt that produced the outcome).
	Attempt int `json:"attempt,omitempty"`
	// Outcome, Kind and Hash describe a done record: the outcome class,
	// the guard violation kind of a failed/quarantined point, and the
	// SHA-256 of Result.
	Outcome Outcome `json:"outcome,omitempty"`
	Kind    string  `json:"kind,omitempty"`
	Hash    string  `json:"hash,omitempty"`
	// Result is the point's full serialised result (OpDone only).
	Result json.RawMessage `json:"result,omitempty"`
}

// HashResult returns the outcome hash of a serialised result.
func HashResult(result []byte) string {
	sum := sha256.Sum256(result)
	return hex.EncodeToString(sum[:])
}

// framePrefix tags every journal line with the format version.
const framePrefix = "j1 "

// crcTable is the Castagnoli table shared by framing and verification.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxRecordBytes bounds one framed record so a hostile or garbage file
// cannot make the reader allocate without limit while decoding a line.
const maxRecordBytes = 64 << 20

// frame renders a record as one journal line (including the newline).
func frame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal record: %w", err)
	}
	line := make([]byte, 0, len(framePrefix)+9+len(payload)+1)
	line = append(line, framePrefix...)
	var crc [4]byte
	sum := crc32.Checksum(payload, crcTable)
	crc[0], crc[1], crc[2], crc[3] = byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)
	line = hex.AppendEncode(line, crc[:])
	line = append(line, ' ')
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// parseLine decodes one complete journal line (without its newline).
func parseLine(line []byte) (Record, error) {
	var rec Record
	if len(line) > maxRecordBytes {
		return rec, fmt.Errorf("journal: %d-byte record exceeds the %d limit", len(line), maxRecordBytes)
	}
	if !bytes.HasPrefix(line, []byte(framePrefix)) {
		return rec, fmt.Errorf("journal: record lacks the %q frame", framePrefix)
	}
	rest := line[len(framePrefix):]
	if len(rest) < 9 || rest[8] != ' ' {
		return rec, fmt.Errorf("journal: truncated frame header")
	}
	crcBytes, err := hex.DecodeString(string(rest[:8]))
	if err != nil {
		return rec, fmt.Errorf("journal: bad checksum field: %w", err)
	}
	payload := rest[9:]
	want := uint32(crcBytes[0])<<24 | uint32(crcBytes[1])<<16 | uint32(crcBytes[2])<<8 | uint32(crcBytes[3])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return rec, fmt.Errorf("journal: checksum mismatch (record torn or corrupted)")
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("journal: record JSON: %w", err)
	}
	switch rec.Op {
	case OpCampaign, OpStart, OpDone:
	default:
		return rec, fmt.Errorf("journal: unknown record op %q", rec.Op)
	}
	if rec.Key == "" {
		return rec, fmt.Errorf("journal: record without a key")
	}
	if rec.Op == OpDone {
		switch rec.Outcome {
		case OutcomeOK, OutcomeFailed, OutcomeQuarantined:
		default:
			return rec, fmt.Errorf("journal: done record with outcome %q", rec.Outcome)
		}
		if rec.Hash != HashResult(rec.Result) {
			return rec, fmt.Errorf("journal: done record hash does not match its result")
		}
	}
	return rec, nil
}

// Log is the replayable state a journal file parses into.
type Log struct {
	// Campaign is the header record (nil on an empty journal).
	Campaign *Record
	// Done maps point key -> the latest done record.
	Done map[string]Record
	// Attempts maps point key -> the highest attempt number seen across
	// start and done records; resume continues numbering from here.
	Attempts map[string]int
	// Records counts valid records parsed.
	Records int
	// TornTail reports that a trailing half-written record was dropped —
	// the normal signature of a killed process, not an error.
	TornTail bool
	// ValidLen is the byte length of the valid prefix. Appending must
	// first truncate the file to this length so the torn tail never
	// corrupts the records written after resume.
	ValidLen int64
}

// Completed reports whether key has a durable done record.
func (l *Log) Completed(key string) bool {
	_, ok := l.Done[key]
	return ok
}

// Parse decodes a journal image. The last record — complete or not — is
// allowed to be torn (dropped, TornTail set); any earlier framing or
// checksum failure is corruption and returns an error. Parse never
// panics, whatever the input (FuzzJournalParse pins this).
func Parse(data []byte) (*Log, error) {
	log := &Log{Done: map[string]Record{}, Attempts: map[string]int{}}
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No trailing newline: the tail record never finished writing.
			log.TornTail = true
			break
		}
		line := data[off : off+nl]
		rec, err := parseLine(line)
		if err != nil {
			if off+nl+1 == len(data) || !haveMoreRecords(data[off+nl+1:]) {
				// The failure sits on the final record: a torn write, the
				// normal crash case.
				log.TornTail = true
				break
			}
			return nil, fmt.Errorf("journal: record %d: %w", log.Records+1, err)
		}
		log.apply(rec)
		off += nl + 1
		log.ValidLen = int64(off)
	}
	return log, nil
}

// haveMoreRecords reports whether any complete line follows — used to
// distinguish a torn final record from mid-file corruption.
func haveMoreRecords(rest []byte) bool {
	return bytes.IndexByte(rest, '\n') >= 0
}

// apply folds one record into the log state.
func (l *Log) apply(rec Record) {
	l.Records++
	switch rec.Op {
	case OpCampaign:
		if l.Campaign == nil {
			c := rec
			l.Campaign = &c
		}
	case OpStart:
		if rec.Attempt > l.Attempts[rec.Key] {
			l.Attempts[rec.Key] = rec.Attempt
		}
	case OpDone:
		l.Done[rec.Key] = rec
		if rec.Attempt > l.Attempts[rec.Key] {
			l.Attempts[rec.Key] = rec.Attempt
		}
	}
}

// maxJournalBytes bounds how much of a journal Load reads; a campaign
// journal is a few KB per point, so anything near this is not ours.
const maxJournalBytes = 1 << 30

// Load reads and parses a journal file. A missing file is an empty log,
// so `-resume` on a first run simply starts fresh.
func Load(path string) (*Log, error) {
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		return &Log{Done: map[string]Record{}, Attempts: map[string]int{}}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if st.Size() > maxJournalBytes {
		return nil, fmt.Errorf("journal: %s is %d bytes, beyond the %d limit", path, st.Size(), maxJournalBytes)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	log, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	return log, nil
}

// Writer appends records to a journal file under group commit.
//
// Every record is written with write(2) before Campaign, Start or Done
// returns, so a killed process leaves exactly the records whose calls
// returned. Durability is one background syncer's job: at most one fsync
// is in flight, and every record written while it runs is covered by the
// next one. That batch is as large as the disk is slow, so it needs no
// size or time constant. Close returns only once every written record is
// synced.
//
// The first failed write or sync is sticky: the writer writes no further
// record, and every later Campaign, Start, Done and Close returns that
// error, so a short write can never be followed by records that would
// leave a torn line mid-file.
//
// The methods are safe for concurrent use by sweep workers. Close must be
// called once; it stops the syncer.
type Writer struct {
	mu sync.Mutex
	// cond is broadcast whenever written, due, synced, err or closing
	// changes; the syncer waits on it.
	cond *sync.Cond
	f    *os.File
	// fsync makes the written records durable: f.Sync, or a test's stand-in.
	fsync func() error
	// written counts records written; the first due of them must be
	// synced (through the last campaign or done record, or all of them
	// once Close is called); synced counts those a completed sync covers.
	written, due, synced int
	err                  error // the first write or sync failure
	closing              bool
	stopped              chan struct{} // closed when the syncer exits
}

// newWriter starts the syncer of a journal open for appending at f's
// offset.
func newWriter(f *os.File, fsync func() error) *Writer {
	w := &Writer{f: f, fsync: fsync, stopped: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.syncer()
	return w
}

// Create opens a fresh journal, refusing to overwrite one that already
// holds records: clobbering a resumable journal by omitting -resume must
// be an explicit decision, not an accident.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("journal: %s exists; resume it or remove it first", path)
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	return newWriter(f, f.Sync), nil
}

// Resume opens an existing journal for appending, first truncating the
// torn tail the log identified so new records never land after garbage.
func Resume(path string, log *Log) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := f.Truncate(log.ValidLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(log.ValidLen, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	return newWriter(f, f.Sync), nil
}

// syncer is the writer's one goroutine: while written records are due
// and not yet synced, it syncs everything written so far. It exits on the
// first failure, or once Close is called and nothing is left to sync.
func (w *Writer) syncer() {
	defer close(w.stopped)
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil {
		if w.synced >= w.due {
			if w.closing {
				return
			}
			w.cond.Wait()
			continue
		}
		batch := w.written
		w.mu.Unlock()
		err := w.fsync()
		w.mu.Lock()
		if err != nil {
			w.err = fmt.Errorf("journal: sync: %w", err)
		} else {
			w.synced = batch
		}
		w.cond.Broadcast()
	}
}

// append frames and writes one record; a durable one is due for the next
// sync, the others ride along with it.
func (w *Writer) append(rec Record, durable bool) error {
	line, err := frame(rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if _, err := w.f.Write(line); err != nil {
		w.err = fmt.Errorf("journal: append: %w", err)
		w.cond.Broadcast()
		return w.err
	}
	w.written++
	if durable {
		w.due = w.written
		w.cond.Broadcast()
	}
	return nil
}

// Campaign writes the journal header, due for the next sync.
func (w *Writer) Campaign(key string, points int) error {
	return w.append(Record{Op: OpCampaign, Key: key, Points: points}, true)
}

// Start marks one point attempt as in flight. Start records are advisory
// (a point without a done record re-runs either way), so they only ride
// along with the sync a later record or Close makes due.
func (w *Writer) Start(key string, attempt int) error {
	return w.append(Record{Op: OpStart, Key: key, Attempt: attempt}, false)
}

// Done writes one point's outcome and returns without waiting for its
// sync: a killed process never loses it, and an OS crash or power loss
// loses it only if it came after the last completed sync, in which case
// the point re-runs on resume.
func (w *Writer) Done(key string, attempt int, outcome Outcome, kind string, result []byte) error {
	return w.append(Record{
		Op: OpDone, Key: key, Attempt: attempt, Outcome: outcome, Kind: kind,
		Hash: HashResult(result), Result: json.RawMessage(result),
	}, true)
}

// Close syncs every record written, stops the syncer and closes the
// file. It returns the writer's first write or sync failure, if any.
func (w *Writer) Close() error {
	w.mu.Lock()
	w.closing, w.due = true, w.written
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.stopped
	cerr := w.f.Close()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if cerr != nil {
		return fmt.Errorf("journal: %w", cerr)
	}
	return nil
}
