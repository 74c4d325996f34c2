package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"noctg/internal/journal"
)

// PointKey is the stable identity of one grid point in a journal: the
// sha256 of the point's JSON. A Point holds only result-determining
// fields — the execution knobs (workers, kernel, shards, guard, retry)
// live on the Runner and never change what a point computes — so a
// campaign may be resumed under any other Runner, a different shard count
// (0 included) among them, and still match its journal. The omitempty
// tags on Measure and Analytic keep the keys of journals written before
// those fields existed; TestPointKeyExecutionOnlyKnobs pins one literal
// key.
func PointKey(p Point) string {
	b, err := json.Marshal(p)
	if err != nil {
		// Point fields are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("sweep: point key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// campaignKey identifies the whole point set (order included), so a
// journal can refuse to resume a different campaign.
func campaignKey(keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// JournalConfig selects the journal file and whether to resume it.
type JournalConfig struct {
	// Path is the journal file. A fresh run refuses an existing file (it
	// may be resumable); Resume refuses a journal from a different
	// campaign.
	Path string `json:"path"`
	// Resume loads the journal first and skips every completed point,
	// re-running only in-flight or never-started ones.
	Resume bool `json:"resume,omitempty"`
}

// JournalStatus summarises what a journaled run did, for CLI reporting.
type JournalStatus struct {
	// Resumed counts points restored from the journal without re-running.
	Resumed int
	// Ran counts points executed (and journaled) this run.
	Ran int
	// Skipped counts points not started because Interrupted fired (for
	// curves, only the drained round's levels); they stay incomplete.
	Skipped int
	// Torn reports that the journal ended in a half-written record — the
	// normal crash signature — which resume truncated away.
	Torn bool
}

// journalOutcome classifies a final result for its done record.
func journalOutcome(res Result) (journal.Outcome, string) {
	if res.Err == "" {
		return journal.OutcomeOK, ""
	}
	kind := ""
	if res.Violation != nil {
		kind = string(res.Violation.Kind)
	}
	if transientFailure(res) {
		// Retries exhausted on a transient classification.
		return journal.OutcomeFailed, kind
	}
	return journal.OutcomeQuarantined, kind
}

// campaignJournal is a campaign's open write-ahead journal as the point
// executor sees it: the records a resume restores, the writer new records
// go to, and the running status. Run and RunCurves pass none.
type campaignJournal struct {
	w      *journal.Writer
	log    *journal.Log
	status JournalStatus
}

// openJournal creates jc's journal, or loads it for resume, for the
// campaign of the given points. A resume refuses a journal of a different
// campaign.
func openJournal(jc JournalConfig, points []Point) (j *campaignJournal, err error) {
	if jc.Path == "" {
		return nil, fmt.Errorf("sweep: journaled run needs a journal path")
	}
	keys := make([]string, len(points))
	for i, p := range points {
		keys[i] = PointKey(p)
	}
	camp := campaignKey(keys)
	j = &campaignJournal{log: &journal.Log{}}
	if jc.Resume {
		if j.log, err = journal.Load(jc.Path); err != nil {
			return nil, err
		}
		if c := j.log.Campaign; c != nil && (c.Key != camp || c.Points != len(keys)) {
			return nil, fmt.Errorf("sweep: journal %s records a different campaign (%d points, key %.12s...); not resuming it",
				jc.Path, c.Points, c.Key)
		}
		j.status.Torn = j.log.TornTail
		j.w, err = journal.Resume(jc.Path, j.log)
	} else {
		j.w, err = journal.Create(jc.Path)
	}
	if err != nil {
		return nil, err
	}
	if j.log.Campaign == nil {
		// A fresh journal — or an empty or fully-torn one resumed — opens
		// with the campaign header.
		if err := j.w.Campaign(camp, len(keys)); err != nil {
			j.w.Close()
			return nil, err
		}
	}
	return j, nil
}

// done journals a finished point's durable outcome record.
func (j *campaignJournal) done(key string, attempt int, res Result) error {
	buf, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("sweep: result: %w", err)
	}
	outcome, kind := journalOutcome(res)
	return j.w.Done(key, attempt, outcome, kind, buf)
}

// close flushes the journal. A flush failure outranks a drain — the resume
// hint would promise records that may not be durable — but not an earlier
// failure.
func (j *campaignJournal) close(err error) error {
	if cerr := j.w.Close(); cerr != nil && (err == nil || errors.Is(err, ErrDrained)) {
		return cerr
	}
	return err
}

// RunJournaled executes the points under a write-ahead journal: one done
// record per finished point carrying the full serialised Result, so any
// later resume reproduces final artifacts byte-identical to an
// uninterrupted run without re-simulating completed points — at any kill
// point, worker count, kernel or shard count. The journal commits in
// groups: a record is written before the point's worker moves on and made
// durable by the next background fsync, so a process kill loses no
// completed point, and an OS crash or power loss loses at most the points
// finished since the last completed sync (they re-run on resume). Every
// record is synced before RunJournaled returns, a drained run included.
// Failed points are completed points too (their Result carries Err); only
// in-flight and never-started points re-run on resume. ErrDrained is
// returned when Interrupted stopped the run before every point completed.
func (r Runner) RunJournaled(points []Point, jc JournalConfig) ([]Result, JournalStatus, error) {
	if err := r.validatePoints(points); err != nil {
		return nil, JournalStatus{}, err
	}
	j, err := openJournal(jc, points)
	if err != nil {
		return nil, JournalStatus{}, err
	}
	results, err := r.execPoints(&programCache{}, points, j)
	return results, j.status, j.close(err)
}

// Resume continues an interrupted journaled run: completed points are
// restored from the journal, the rest execute, and the returned results
// are byte-identical to an uninterrupted RunJournaled over the same
// points.
func (r Runner) Resume(points []Point, path string) ([]Result, JournalStatus, error) {
	return r.RunJournaled(points, JournalConfig{Path: path, Resume: true})
}
