package ocp

import "math/bits"

// Log is an event sequence kept in chunks that never move, so an event's
// address is stable for the log's lifetime. Its storage contract is the
// package doc's (# The event log).
type Log struct {
	chunks [][]Event
	n      int
}

// A log built by Append starts a chunk when the last one is full, sized to
// the events logged before it clamped to [1<<minChunkLog, 1<<maxChunkLog]:
// 16, 16, 32, …, 256, 512, 512, …, so At finds event i's chunk by
// arithmetic. A reference run logs hundreds of thousands of events; a flat
// slice grown by append, which enlarges a large slice by about a quarter
// and copies it each time, would cost several times its own size.
const (
	minChunkLog = 4
	maxChunkLog = 9
)

// LogOf wraps events as a one-chunk log without copying them: a hand-built
// trace. Such a log is complete; Append refuses to extend it.
func LogOf(events []Event) Log {
	if len(events) == 0 {
		return Log{}
	}
	return Log{chunks: [][]Event{events[:len(events):len(events)]}, n: len(events)}
}

// Len returns the number of events.
func (l *Log) Len() int { return l.n }

// At returns event i, 0 ≤ i < Len.
func (l *Log) At(i int) *Event {
	switch {
	case len(l.chunks) == 1 || i < 1<<minChunkLog:
		return &l.chunks[0][i]
	case i < 2<<maxChunkLog:
		b := bits.Len(uint(i)) - 1 // i is in [1<<b, 2<<b), chunk b-minChunkLog+1
		return &l.chunks[b-minChunkLog+1][i-1<<b]
	}
	return &l.chunks[i>>maxChunkLog+maxChunkLog-minChunkLog][i&(1<<maxChunkLog-1)]
}

// Append adds e at the end of the log and returns where it is stored. It
// panics on a log made by LogOf, whose one chunk breaks the layout At
// relies on.
func (l *Log) Append(e Event) *Event {
	k := len(l.chunks) - 1
	if k < 0 || len(l.chunks[k]) == cap(l.chunks[k]) {
		if k == 0 && l.n != 1<<minChunkLog {
			panic("ocp: Append to a log made by LogOf")
		}
		l.chunks = append(l.chunks, make([]Event, 0, min(max(l.n, 1<<minChunkLog), 1<<maxChunkLog)))
		k++
	}
	l.chunks[k] = append(l.chunks[k], e)
	l.n++
	return &l.chunks[k][len(l.chunks[k])-1]
}
