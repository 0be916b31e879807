package server

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"abg/internal/obs"
	"abg/internal/sim"
)

// Request tracing. A submission that carries an X-Abg-Trace-Id header (the
// Client generates one per Submit, stable across its retries) is followed
// end to end: the submit instant, the queued interval up to admission, every
// executed quantum, restarts, and completion are recorded as obs.Spans on
// one track per job. Traces live only in memory — they are observational,
// never journaled, and a crash forgets the traces in flight; the store is
// bounded both in trace count and in spans per trace so a long-lived daemon
// cannot grow without bound. GET /api/v1/traces/{id} serves a trace as JSON
// or, with ?format=perfetto, as Chrome trace-event JSON for
// https://ui.perfetto.dev. Timestamps are simulation steps (one step = one
// trace microsecond), the repo-wide trace convention.

// TraceHeader is the request header that carries the client trace id.
const TraceHeader = "X-Abg-Trace-Id"

const (
	maxTraces        = 256  // retained traces; oldest evicted first
	maxSpansPerTrace = 4096 // per-trace span cap; overflow sets Truncated
)

// TraceDTO is the JSON wire form of one trace.
type TraceDTO struct {
	ID   string `json:"id"`
	Jobs []int  `json:"jobs"`
	// Done counts the trace's jobs that have completed.
	Done int `json:"done"`
	// Truncated reports that the span cap cut the record (completion
	// instants are still appended).
	Truncated bool       `json:"truncated,omitempty"`
	Spans     []obs.Span `json:"spans"`
}

// traceRec is one trace under construction.
type traceRec struct {
	id        string
	jobs      []int
	submitted int64 // sim step of the accepted submission
	spans     []obs.Span
	done      int
	truncated bool
}

// traceStore follows submissions through the event stream. OnEvent runs
// synchronously on the driver goroutine, so per-event work is one bounded
// map lookup when no trace covers the job.
type traceStore struct {
	mu    sync.Mutex
	byID  map[string]*traceRec
	byJob map[int]*traceRec
	order []string // insertion order, for FIFO eviction
}

func newTraceStore() *traceStore {
	return &traceStore{
		byID:  make(map[string]*traceRec),
		byJob: make(map[int]*traceRec),
	}
}

// register opens a trace for the given job ids. now is the submission's
// simulation step. A re-registered id (client retry that lost the ack but
// hit a fresh daemon) keeps the original record.
func (t *traceStore) register(id string, jobs []int, now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[id]; ok {
		return
	}
	if len(t.order) == maxTraces {
		t.evictLocked(t.order[0])
	}
	rec := &traceRec{id: id, jobs: append([]int(nil), jobs...), submitted: now}
	track := func(job int) string { return fmt.Sprintf("job %d", job) }
	for _, j := range jobs {
		t.byJob[j] = rec
		rec.spans = append(rec.spans, obs.Span{
			Name: "submit", Track: track(j), Cat: "lifecycle", Start: now,
		})
	}
	t.byID[id] = rec
	t.order = append(t.order, id)
}

// evictLocked drops one trace and its job index entries.
func (t *traceStore) evictLocked(id string) {
	rec := t.byID[id]
	delete(t.byID, id)
	for _, j := range rec.jobs {
		if t.byJob[j] == rec {
			delete(t.byJob, j)
		}
	}
	for i, v := range t.order {
		if v == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// append adds a span, honouring the per-trace cap; force bypasses it so
// lifecycle boundaries survive truncation.
func (rec *traceRec) append(sp obs.Span, force bool) {
	if len(rec.spans) >= maxSpansPerTrace && !force {
		rec.truncated = true
		return
	}
	rec.spans = append(rec.spans, sp)
}

// OnEvent implements obs.Subscriber.
func (t *traceStore) OnEvent(e obs.Event) {
	switch e.Kind {
	case obs.EvJobAdmitted, obs.EvQuantumEnd, obs.EvJobRestarted, obs.EvJobCompleted:
	default:
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.byJob[e.Job]
	if !ok {
		return
	}
	track := fmt.Sprintf("job %d", e.Job)
	switch e.Kind {
	case obs.EvJobAdmitted:
		rec.append(obs.Span{
			Name: "queued", Track: track, Cat: "lifecycle",
			Start: rec.submitted, Dur: e.Time - rec.submitted,
			Args: map[string]any{"name": e.Name},
		}, true)
	case obs.EvQuantumEnd:
		rec.append(obs.Span{
			Name:  fmt.Sprintf("q%d a=%d", e.Quantum, e.Allotment),
			Track: track, Cat: "quantum",
			Start: e.Time - int64(e.Steps), Dur: int64(e.Steps),
			Args: map[string]any{
				"request": e.Request, "allotment": e.Allotment,
				"work": e.Work, "parallelism": e.Parallelism,
				"deprived": e.Deprived,
			},
		}, false)
	case obs.EvJobRestarted:
		rec.append(obs.Span{
			Name: "restart", Track: track, Cat: "lifecycle", Start: e.Time,
			Args: map[string]any{"lostWork": e.Work},
		}, true)
	case obs.EvJobCompleted:
		rec.append(obs.Span{
			Name: "complete", Track: track, Cat: "lifecycle", Start: e.Time,
			Args: map[string]any{"work": e.Work, "response": e.Response},
		}, true)
		rec.done++
		delete(t.byJob, e.Job)
	}
}

// get returns a copy of one trace.
func (t *traceStore) get(id string) (TraceDTO, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.byID[id]
	if !ok {
		return TraceDTO{}, false
	}
	return TraceDTO{
		ID: rec.id, Jobs: append([]int(nil), rec.jobs...), Done: rec.done,
		Truncated: rec.truncated,
		Spans:     append([]obs.Span(nil), rec.spans...),
	}, true
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	dto, ok := s.traces.get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown trace %q", id))
		return
	}
	if r.URL.Query().Get("format") == "perfetto" {
		if len(dto.Spans) == 0 {
			WriteError(w, http.StatusConflict, "trace has no spans yet")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteSpans(w, "trace "+id, dto.Spans)
		return
	}
	WriteJSON(w, http.StatusOK, dto)
}

// TimelineDTO is the JSON wire form of one job's quantum timeline, served at
// GET /api/v1/jobs/{id}/timeline: the engine's bounded in-memory ring of
// per-quantum desire/allotment/parallelism/verdict samples.
type TimelineDTO struct {
	ID    int    `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"`
	// Ring is the configured ring depth; Evicted the samples the bound has
	// already discarded (oldest first).
	Ring    int                 `json:"ring"`
	Evicted int                 `json:"evicted"`
	Samples []sim.QuantumSample `json:"samples"`
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad job id")
		return
	}
	dto, ok := s.JobTimeline(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown job %d", id))
		return
	}
	WriteJSON(w, http.StatusOK, dto)
}
