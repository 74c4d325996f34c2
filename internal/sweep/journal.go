package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

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

// CampaignKey identifies the whole point set (order included), so a
// journal can refuse to resume a different campaign.
func CampaignKey(keys []string) string {
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
	// Skipped counts points not started because Interrupted fired; they
	// stay incomplete in the journal for the next resume.
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

// RunJournaled executes the points under a write-ahead journal: one
// fsync'd done record per finished point carrying the full serialised
// Result, so any later resume reproduces final artifacts byte-identical
// to an uninterrupted run without re-simulating completed points — at
// any kill point, worker count, kernel or shard count. Failed points are
// completed points too (their Result carries Err); only in-flight and
// never-started points re-run on resume. ErrDrained is returned when
// Interrupted stopped the run before every point completed.
func (r Runner) RunJournaled(points []Point, jc JournalConfig) ([]Result, JournalStatus, error) {
	var status JournalStatus
	if jc.Path == "" {
		return nil, status, fmt.Errorf("sweep: journaled run needs a journal path")
	}
	if err := r.validatePoints(points); err != nil {
		return nil, status, err
	}
	keys := make([]string, len(points))
	for i, p := range points {
		keys[i] = PointKey(p)
	}
	camp := CampaignKey(keys)

	results := make([]Result, len(points))
	completed := make([]bool, len(points))
	prior := make(map[string]int)

	var w *journal.Writer
	if jc.Resume {
		log, err := journal.Load(jc.Path)
		if err != nil {
			return nil, status, err
		}
		if log.Campaign != nil && (log.Campaign.Key != camp || log.Campaign.Points != len(points)) {
			return nil, status, fmt.Errorf("sweep: journal %s records a different campaign (%d points, key %.12s...); not resuming it",
				jc.Path, log.Campaign.Points, log.Campaign.Key)
		}
		status.Torn = log.TornTail
		for i, k := range keys {
			rec, ok := log.Done[k]
			if !ok {
				continue
			}
			if err := json.Unmarshal(rec.Result, &results[i]); err != nil {
				return nil, status, fmt.Errorf("sweep: journal %s: point %d result: %w", jc.Path, points[i].ID, err)
			}
			completed[i] = true
			status.Resumed++
		}
		for k, n := range log.Attempts {
			prior[k] = n
		}
		if w, err = journal.Resume(jc.Path, log); err != nil {
			return nil, status, err
		}
		if log.Campaign == nil {
			// An empty or fully-torn journal resumes as a fresh campaign.
			if err := w.Campaign(camp, len(points)); err != nil {
				w.Close()
				return nil, status, err
			}
		}
	} else {
		var err error
		if w, err = journal.Create(jc.Path); err != nil {
			return nil, status, err
		}
		if err := w.Campaign(camp, len(points)); err != nil {
			w.Close()
			return nil, status, err
		}
	}

	var todo []int
	for i := range points {
		if !completed[i] {
			todo = append(todo, i)
		}
	}
	cache := &programCache{}
	var mu sync.Mutex
	_, runErr := Map(r.Workers, todo, func(_ int, i int) (struct{}, error) {
		if r.Interrupted != nil && r.Interrupted() {
			mu.Lock()
			status.Skipped++
			mu.Unlock()
			return struct{}{}, nil
		}
		res, attempt, err := r.runPointRetry(cache, points[i], true, prior[keys[i]], func(a int) error {
			return w.Start(keys[i], a)
		})
		if err != nil {
			return struct{}{}, err
		}
		buf, err := json.Marshal(res)
		if err != nil {
			return struct{}{}, fmt.Errorf("sweep: point %d result: %w", points[i].ID, err)
		}
		outcome, kind := journalOutcome(res)
		if err := w.Done(keys[i], attempt, outcome, kind, buf); err != nil {
			return struct{}{}, err
		}
		results[i] = res
		mu.Lock()
		status.Ran++
		mu.Unlock()
		return struct{}{}, nil
	})
	if cerr := w.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		return nil, status, runErr
	}
	if status.Skipped > 0 {
		return results, status, ErrDrained
	}
	return results, status, nil
}

// Resume continues an interrupted journaled run: completed points are
// restored from the journal, the rest execute, and the returned results
// are byte-identical to an uninterrupted RunJournaled over the same
// points.
func (r Runner) Resume(points []Point, path string) ([]Result, JournalStatus, error) {
	return r.RunJournaled(points, JournalConfig{Path: path, Resume: true})
}
