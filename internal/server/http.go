package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"abg/internal/obs"
	"abg/internal/obs/promexport"
)

// HTTP plumbing shared by every front door that speaks the daemon's API: a
// daemon's own listener and the cluster layer's (internal/cluster).

// WriteJSON writes v with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the uniform error body.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorDTO{msg})
}

// errorDTO is the uniform error body.
type errorDTO struct {
	Error string `json:"error"`
}

// errDraining rejects submissions once admission has closed.
var errDraining = errors.New("draining: admission closed")

// ServeSubmit is the POST /api/v1/jobs body: decode and normalize the
// request (400 on failure), hand it to submit with the request's trace id,
// and answer submit's ack — or its error, with Retry-After on a 429.
func ServeSubmit[A any](w http.ResponseWriter, r *http.Request, submit func(req JobRequest, traceID string) (A, int, error)) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := req.Normalize(); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ack, status, err := submit(req, r.Header.Get(TraceHeader))
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		WriteError(w, status, err.Error())
		return
	}
	WriteJSON(w, status, ack)
}

// ServeDrain is the POST /api/v1/drain body: start the drain and, with
// ?wait=1, block until drained closes (or the client gives up).
func ServeDrain(w http.ResponseWriter, r *http.Request, drain func(), drained <-chan struct{}) {
	drain()
	wait := r.URL.Query().Get("wait")
	done := false
	if wait == "1" || wait == "true" {
		select {
		case <-drained:
			done = true
		case <-r.Context().Done():
		}
	}
	WriteJSON(w, http.StatusOK, map[string]bool{"draining": true, "done": done})
}

// httpBuckets span sub-millisecond state reads to multi-second drains.
var httpBuckets = obs.ExponentialBuckets(0.001, 4, 7)

// HTTPMetrics records a front door's abgd_http_* families:
//
//	abgd_http_requests_total{route,method,code}  counter
//	abgd_http_request_seconds{route}             histogram (wall latency)
//	abgd_http_inflight_requests                  gauge
type HTTPMetrics struct {
	reg      *obs.Registry
	inflight *obs.Gauge
	// agg is the cross-route latency aggregate behind StateDTO's
	// httpLatencyP* fields. It lives in a private registry: /metrics
	// consumers aggregate the per-route histograms themselves.
	agg *obs.Histogram
}

// NewHTTPMetrics registers the HTTP families in reg.
func NewHTTPMetrics(reg *obs.Registry) *HTTPMetrics {
	return &HTTPMetrics{
		reg:      reg,
		inflight: reg.Gauge("abgd_http_inflight_requests"),
		agg:      obs.NewRegistry().Histogram("http_all_seconds", httpBuckets),
	}
}

// Instrument wraps one route's handler with the HTTP metric families. The
// route label is the registration pattern's path — bounded cardinality, not
// the raw URL.
func (m *HTTPMetrics) Instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := m.reg.Histogram(
		promexport.Name("abgd_http_request_seconds", "route", route), httpBuckets)
	return func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Add(1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		sec := time.Since(start).Seconds()
		m.inflight.Add(-1)
		code := rec.code
		if code == 0 { // handler wrote nothing: net/http sends 200
			code = http.StatusOK
		}
		m.reg.Counter(promexport.Name("abgd_http_requests_total",
			"route", route, "method", r.Method, "code", strconv.Itoa(code))).Inc()
		hist.Observe(sec)
		m.agg.Observe(sec)
	}
}

// statusRecorder captures the response status for the request counter while
// passing Flush through, so the SSE handler keeps streaming when wrapped.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
