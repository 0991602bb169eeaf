package serve

import (
	"sync"

	"sitam/internal/obs"
)

// FlightRecorder retains the search traces of finished jobs for
// post-hoc replay through GET /v1/jobs/{id}/trace. Retention is
// bounded on two axes:
//
//   - at most MaxJobs recordings are kept; recording one more evicts
//     the oldest (a ring over completed jobs, not over events);
//   - one recording holds at most MaxEvents events. An overflowing
//     trace is sampled head-and-tail: the first MaxEvents/2 and last
//     MaxEvents-MaxEvents/2 events survive, the middle is elided and
//     counted in Dropped. Head and tail are the halves that matter for
//     replay — the head carries the phase structure and setup costs,
//     the tail the convergence endpoint and the terminal accounting —
//     and because sampling is positional, not random, a recording is
//     deterministic for a deterministic trace.
//
// Recordings are immutable once stored, so two replays of the same job
// serve byte-identical JSONL.
type FlightRecorder struct {
	maxJobs   int
	maxEvents int

	mu     sync.Mutex
	order  []string // recording order, oldest first
	traces map[string]*Recording
}

// Recording is one job's retained trace.
type Recording struct {
	// JobID is the job-correlation ID; every retained event carries it
	// in its Job field too.
	JobID string

	// Events is the retained (possibly sampled) trace. Sequence numbers
	// are the original ones, so an elided middle is visible as a seq
	// gap between Events[len/2-1] and Events[len/2].
	Events []obs.Event

	// Total is the event count of the full trace; Dropped is how many
	// of them sampling elided (0 when the trace fit).
	Total   int
	Dropped int
}

// Default flight-recorder bounds used when Config leaves them zero.
const (
	DefaultRecorderJobs   = 64
	DefaultRecorderEvents = 8192
)

// NewFlightRecorder builds a recorder with the given bounds; zero or
// negative values take the defaults.
func NewFlightRecorder(maxJobs, maxEvents int) *FlightRecorder {
	if maxJobs <= 0 {
		maxJobs = DefaultRecorderJobs
	}
	if maxEvents <= 0 {
		maxEvents = DefaultRecorderEvents
	}
	return &FlightRecorder{
		maxJobs:   maxJobs,
		maxEvents: maxEvents,
		traces:    map[string]*Recording{},
	}
}

// Record stores a finished job's trace, sampling it if it overflows
// the per-recording bound and evicting the oldest recording beyond the
// job bound. Re-recording an ID replaces the previous recording (a
// terminal claim is exactly-once, so this only happens in tests).
func (fr *FlightRecorder) Record(jobID string, events []obs.Event) {
	if fr == nil {
		return
	}
	rec := &Recording{JobID: jobID, Events: events, Total: len(events)}
	if len(events) > fr.maxEvents {
		head := fr.maxEvents / 2
		tail := fr.maxEvents - head
		sampled := make([]obs.Event, 0, fr.maxEvents)
		sampled = append(sampled, events[:head]...)
		sampled = append(sampled, events[len(events)-tail:]...)
		rec.Events = sampled
		rec.Dropped = len(events) - fr.maxEvents
	}

	fr.mu.Lock()
	defer fr.mu.Unlock()
	if _, exists := fr.traces[jobID]; !exists {
		fr.order = append(fr.order, jobID)
	}
	fr.traces[jobID] = rec
	for len(fr.order) > fr.maxJobs {
		evict := fr.order[0]
		fr.order = fr.order[1:]
		delete(fr.traces, evict)
	}
}

// Get returns the recording for a job, or nil when it was never
// recorded or has been evicted.
func (fr *FlightRecorder) Get(jobID string) *Recording {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.traces[jobID]
}

// Len returns the number of retained recordings.
func (fr *FlightRecorder) Len() int {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return len(fr.order)
}
