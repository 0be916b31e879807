package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"abg/internal/obs"
)

// eventDTO is the JSON wire form of one obs.Event on the SSE stream.
// Fields follow the event taxonomy; irrelevant ones are omitted.
type eventDTO struct {
	Kind        string  `json:"kind"`
	Time        int64   `json:"time"`
	Quantum     int     `json:"quantum,omitempty"`
	Job         int     `json:"job"`
	Name        string  `json:"name,omitempty"`
	Request     float64 `json:"request,omitempty"`
	IntRequest  int     `json:"intRequest,omitempty"`
	Allotment   int     `json:"allotment,omitempty"`
	P           int     `json:"p,omitempty"`
	Steps       int     `json:"steps,omitempty"`
	Work        int64   `json:"work,omitempty"`
	Waste       int64   `json:"waste,omitempty"`
	Response    int64   `json:"response,omitempty"`
	Parallelism float64 `json:"parallelism,omitempty"`
	Deprived    bool    `json:"deprived,omitempty"`
	Completed   bool    `json:"completed,omitempty"`
}

// MarshalEvent renders one instrumentation event as the JSON an SSE frame
// carries.
func MarshalEvent(e obs.Event) []byte {
	b, err := json.Marshal(eventDTO{
		Kind: e.Kind.String(), Time: e.Time, Quantum: e.Quantum, Job: e.Job,
		Name: e.Name, Request: e.Request, IntRequest: e.IntRequest,
		Allotment: e.Allotment, P: e.P, Steps: e.Steps, Work: e.Work,
		Waste: e.Waste, Response: e.Response, Parallelism: e.Parallelism,
		Deprived: e.Deprived, Completed: e.Completed,
	})
	if err != nil { // a flat struct of scalars cannot fail to marshal
		return []byte(`{"kind":"marshal_error"}`)
	}
	return b
}

// sseMsg is one stream item: a marshalled event, the hub component that
// published it with that component's sequence number, and — on a hub of
// several components — the rendered vector id as of the frame.
type sseMsg struct {
	comp int
	seq  uint64
	vec  string // "" on a one-component hub, whose id is seq itself
	data []byte
}

// write renders the item as one SSE frame.
func (m sseMsg) write(w io.Writer) error {
	var err error
	if m.vec == "" {
		_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", m.seq, m.data)
	} else {
		_, err = fmt.Fprintf(w, "id: %s\ndata: %s\n\n", m.vec, m.data)
	}
	return err
}

// EventHub fans instrumentation events out to the connected SSE clients.
// A daemon's hub has one component and subscribes to the run's obs bus, so
// OnEvent is called synchronously from the simulation driver: sends are
// non-blocking, and a client that cannot keep up loses events (counted in
// Dropped) rather than stalling the scheduler — backpressure never
// propagates into the quantum clock.
//
// Every event carries a monotonic per-component sequence number, assigned
// whether or not a client is connected, and the newest events are retained
// in a bounded replay ring. A client that reconnects with Last-Event-ID
// resumes from the ring without loss; one that fell behind the ring is told
// to resync. Because the numbers count the deterministic event stream
// itself (and the counter is persisted in engine snapshots), a recovered
// daemon re-issues the same events under the same ids — reconnecting
// subscribers cannot tell a crash-restart from a slow network.
//
// A cluster front door's hub has one component per shard and merges the
// shards' streams without inventing a global counter a restart could not
// reconstruct (shards recover independently, so only the per-shard orders
// survive a crash). Its event ids are therefore vectors, "s0,s1,…,sN-1":
// every component's sequence number as of the frame. A client resumes by
// sending the vector back, and the hub replays, per component, everything
// newer than the client's position — the one-component contract applied
// component-wise. With one component the vector is a single number, so a
// one-shard cluster's stream is byte-identical to a plain daemon's.
type EventHub struct {
	mu      sync.Mutex
	clients map[chan sseMsg]struct{}
	seqs    []uint64 // latest published sequence number per component
	ring    *ring[sseMsg]
	n       atomic.Int64 // len(clients), readable without the lock
	dropped atomic.Int64
	evicted atomic.Int64 // events pushed out of the replay ring
	closed  bool
}

// NewEventHub returns a hub of the given number of components whose replay
// ring keeps at most ringCap events and, when byteCap > 0, at most byteCap
// summed payload bytes. Event payloads vary by an order of magnitude across
// kinds, so an entry cap alone leaves the ring's memory footprint
// workload-dependent; whichever cap is hit first evicts the oldest events.
func NewEventHub(components, ringCap, byteCap int) *EventHub {
	return &EventHub{
		clients: make(map[chan sseMsg]struct{}),
		seqs:    make([]uint64, components),
		ring:    newRing(ringCap, byteCap, func(m sseMsg) int { return len(m.data) }),
	}
}

// OnEvent implements obs.Subscriber for a one-component hub.
func (h *EventHub) OnEvent(e obs.Event) { h.Publish(0, MarshalEvent(e)) }

// Publish appends one marshalled event to component comp's stream.
func (h *EventHub) Publish(comp int, data []byte) {
	h.mu.Lock()
	h.seqs[comp]++
	m := sseMsg{comp: comp, seq: h.seqs[comp], data: data}
	if len(h.seqs) > 1 {
		m.vec = renderVector(h.seqs)
	}
	if n := h.ring.push(m); n > 0 {
		h.evicted.Add(int64(n))
	}
	for ch := range h.clients {
		select {
		case ch <- m:
		default:
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

// SetSeq positions one component's sequence counter (boot only, before any
// event flows): recovery restored the stream to seq.
func (h *EventHub) SetSeq(comp int, seq uint64) {
	h.mu.Lock()
	h.seqs[comp] = seq
	h.mu.Unlock()
}

// Seq returns the number of events published across all components — for a
// one-component hub, the id of the most recently published event.
func (h *EventHub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var sum uint64
	for _, s := range h.seqs {
		sum += s
	}
	return sum
}

// ID returns the current stream position as a wire id.
func (h *EventHub) ID() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return renderVector(h.seqs)
}

// Clients, Dropped and Evicted report the connected subscribers, the events
// dropped on slow subscribers, and the events evicted from the replay ring.
func (h *EventHub) Clients() int64 { return h.n.Load() }
func (h *EventHub) Dropped() int64 { return h.dropped.Load() }
func (h *EventHub) Evicted() int64 { return h.evicted.Load() }

// subscribe registers a client that has seen events up to the per-component
// positions in after (all zero for a fresh client). It returns the events
// the ring still holds beyond after, the live channel, and an unsubscribe
// func — registered and replayed under one lock acquisition, so no event
// can fall between the replay slice and the channel. A non-empty resyncID
// reports that some component's position has already been evicted from the
// ring (or lies beyond what survived a crash): the client must refetch
// absolute state, and resyncID is the position just before the replay. A
// nil channel is returned after the hub closed.
func (h *EventHub) subscribe(buffer int, after []uint64) (replay []sseMsg, ch <-chan sseMsg, resyncID string, unsub func()) {
	c := make(chan sseMsg, buffer)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, nil, "", func() {}
	}
	// Oldest retained sequence number per component; zero means the ring
	// holds nothing of that component, so any gap on it forces a resync.
	oldest := make([]uint64, len(h.seqs))
	for i := h.ring.len() - 1; i >= 0; i-- {
		m := h.ring.at(i)
		oldest[m.comp] = m.seq
	}
	resync := false
	for k, a := range after {
		// A client ahead of us saw events from a journal tail that did not
		// survive the crash; only absolute state can reconcile that.
		if a > h.seqs[k] || (a < h.seqs[k] && (oldest[k] == 0 || a+1 < oldest[k])) {
			resync = true
		}
	}
	for i := 0; i < h.ring.len(); i++ {
		if m := h.ring.at(i); m.seq > after[m.comp] {
			replay = append(replay, m)
		}
	}
	if resync {
		// Each component's position just before its first replayed event
		// (or its head when nothing of it replays), so the client's next
		// reconnect carries on from what it actually saw.
		at := append([]uint64(nil), h.seqs...)
		seen := make([]bool, len(at))
		for _, m := range replay {
			if !seen[m.comp] {
				seen[m.comp] = true
				at[m.comp] = m.seq - 1
			}
		}
		resyncID = renderVector(at)
	}
	h.clients[c] = struct{}{}
	h.n.Store(int64(len(h.clients)))
	var once sync.Once
	return replay, c, resyncID, func() {
		once.Do(func() {
			h.mu.Lock()
			if _, ok := h.clients[c]; ok {
				delete(h.clients, c)
				close(c)
			}
			h.n.Store(int64(len(h.clients)))
			h.mu.Unlock()
		})
	}
}

// Close disconnects every client (end of drain): their channels close,
// which ends the streaming handlers so HTTP shutdown can complete.
func (h *EventHub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for ch := range h.clients {
		delete(h.clients, ch)
		close(ch)
	}
	h.n.Store(0)
}

// ServeEvents streams the hub as Server-Sent Events (GET /api/v1/events):
// every event as one `id:` + `data:` JSON frame. A client that reconnects
// with Last-Event-ID — a number, or a vector with one number per component
// — resumes from the bounded replay ring without loss; one whose position
// has been evicted receives an `event: resync` frame first and must
// refetch absolute state (GET /api/v1/state). A malformed or wrong-length
// id is a 400. The stream ends when the client disconnects or the hub
// closes at the end of the drain. scheduler names the stream in its
// opening comment.
func (h *EventHub) ServeEvents(w http.ResponseWriter, r *http.Request, scheduler string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	after := make([]uint64, len(h.seqs))
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("lastEventID")
	}
	if lastID != "" {
		var ok bool
		if after, ok = parseVector(lastID, len(h.seqs)); !ok {
			WriteError(w, http.StatusBadRequest, "bad Last-Event-ID: "+lastID)
			return
		}
	}
	replay, ch, resyncID, unsubscribe := h.subscribe(1024, after)
	defer unsubscribe()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "retry: %d\n: abgd event stream (%s)\n\n", sseRetryHintMillis, scheduler)
	flusher.Flush()
	if ch == nil { // hub already closed (drained)
		return
	}
	if resyncID != "" {
		fmt.Fprintf(w, "id: %s\nevent: resync\ndata: {\"reason\":\"replay ring evicted, refetch /api/v1/state\"}\n\n", resyncID)
	}
	for _, m := range replay {
		if m.write(w) != nil {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case m, open := <-ch:
			if !open || m.write(w) != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// sseRetryHintMillis is the reconnect delay hint sent at stream start.
const sseRetryHintMillis = 1000

// renderVector renders per-component positions as the wire id: "s0,s1,…".
func renderVector(seqs []uint64) string {
	b := make([]byte, 0, 8*len(seqs))
	for i, s := range seqs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, s, 10)
	}
	return string(b)
}

// parseVector parses a Last-Event-ID into n per-component positions.
func parseVector(s string, n int) ([]uint64, bool) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, false
	}
	out := make([]uint64, n)
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// history records each job's lifecycle transitions — admitted,
// deprived↔satisfied flips, restarts, completion — from the event stream,
// keeping the newest max per job so a long-lived daemon cannot grow without
// bound.
type history struct {
	mu    sync.Mutex
	max   int
	byJob map[int]*ring[HistoryEntry]
}

// HistoryEntry is one lifecycle transition of a job.
type HistoryEntry struct {
	Quantum int    `json:"quantum,omitempty"`
	Time    int64  `json:"time"`
	Event   string `json:"event"`
}

func newHistory(maxPerJob int) *history {
	return &history{max: maxPerJob, byJob: make(map[int]*ring[HistoryEntry])}
}

// OnEvent implements obs.Subscriber.
func (h *history) OnEvent(e obs.Event) {
	switch e.Kind {
	case obs.EvJobAdmitted, obs.EvDeprived, obs.EvSatisfied,
		obs.EvJobRestarted, obs.EvJobCompleted:
	default:
		return
	}
	if e.Job < 0 {
		return
	}
	h.mu.Lock()
	r := h.byJob[e.Job]
	if r == nil {
		r = newRing[HistoryEntry](h.max, 0, nil)
		h.byJob[e.Job] = r
	}
	r.push(HistoryEntry{Quantum: e.Quantum, Time: e.Time, Event: e.Kind.String()})
	h.mu.Unlock()
}

// get returns a copy of the job's transition history.
func (h *history) get(job int) []HistoryEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	if r := h.byJob[job]; r != nil {
		return r.appendTo(nil)
	}
	return nil
}
