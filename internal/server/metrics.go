package server

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"abg/internal/obs"
	"abg/internal/obs/promexport"
	"abg/internal/persist"
)

// Server-layer metric families, exposed at GET /metrics in the Prometheus
// text format (internal/obs/promexport) alongside the engine's sim_*
// families fed by an obs.MetricsSubscriber:
//
//	abgd_http_requests_total{route,method,code}  counter
//	abgd_http_request_seconds{route}             histogram (wall latency)
//	abgd_http_inflight_requests                  gauge
//	abgd_admission_queue_depth                   gauge   (sampled at scrape)
//	abgd_admission_rejected_total                counter (429 responses)
//	abgd_sse_subscribers                         gauge   (sampled at scrape)
//	abgd_sse_dropped_total                       counter (slow-client drops)
//	abgd_sse_ring_evictions_total                counter
//	abgd_journal_appends_total{kind}             counter
//	abgd_journal_append_bytes_total              counter
//	abgd_journal_append_seconds                  histogram
//	abgd_journal_fsyncs_total                    counter
//	abgd_journal_fsync_seconds                   histogram
//	abgd_journal_lag_records                     gauge   (sampled at scrape)
//	abgd_snapshot_age_quanta                     gauge   (sampled at scrape)
//	abgd_snapshots_total                         counter
//	abgd_leader_epoch                            gauge   (sampled at scrape)
//	abgd_recovery_*                              gauges  (set once at boot)
//
// Counters and histograms are updated at event time on their own paths;
// the sampled gauges are refreshed by SampleMetrics under the scrape so
// one exposition is self-consistent.

// journalBuckets span page-cache writes (~10µs) to slow fsyncs (~1s).
var journalBuckets = obs.ExponentialBuckets(1e-5, 4, 9)

// serverMetrics bundles the daemon's pre-resolved metric handles. The
// registry itself may be shared (cmd/abgd passes obs.Default so /debug/vars
// sees the same numbers); handles are resolved once so hot paths never
// rebuild label strings.
type serverMetrics struct {
	reg  *obs.Registry
	http *HTTPMetrics

	queueDepth *obs.Gauge
	rejected   *obs.Counter
	sseSubs    *obs.Gauge
	sseDropped *obs.Counter
	sseEvicted *obs.Counter
	lag        *obs.Gauge
	snapAge    *obs.Gauge
	snapshots  *obs.Counter
	epochG     *obs.Gauge

	mu          sync.Mutex // guards the sampled deltas below
	droppedSeen int64
	evictedSeen int64
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &serverMetrics{
		reg:        reg,
		http:       NewHTTPMetrics(reg),
		queueDepth: reg.Gauge("abgd_admission_queue_depth"),
		rejected:   reg.Counter("abgd_admission_rejected_total"),
		sseSubs:    reg.Gauge("abgd_sse_subscribers"),
		sseDropped: reg.Counter("abgd_sse_dropped_total"),
		sseEvicted: reg.Counter("abgd_sse_ring_evictions_total"),
		lag:        reg.Gauge("abgd_journal_lag_records"),
		snapAge:    reg.Gauge("abgd_snapshot_age_quanta"),
		snapshots:  reg.Counter("abgd_snapshots_total"),
		epochG:     reg.Gauge("abgd_leader_epoch"),
	}
}

// recordRecovery publishes the boot-time recovery outcome as gauges.
func (m *serverMetrics) recordRecovery(rec RecoveryDTO) {
	set := func(name string, v int) { m.reg.Gauge(name).Set(int64(v)) }
	recovered := 0
	if rec.Recovered {
		recovered = 1
	}
	set("abgd_recovery_recovered", recovered)
	set("abgd_recovery_replayed_records", rec.ReplayedRecords)
	set("abgd_recovery_replayed_boundaries", rec.ReplayedBoundaries)
	set("abgd_recovery_resumed_jobs", rec.ResumedJobs)
	set("abgd_recovery_requeued_jobs", rec.RequeuedJobs)
}

// instrument wraps one route's handler with the HTTP metric families; every
// response also carries the serving epoch, which group-aware clients use to
// detect (and refuse) answers from a deposed leader.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return s.metrics.http.Instrument(route, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(EpochHeader, strconv.FormatUint(uint64(s.epoch.Load()), 10))
		h(w, r)
	})
}

// journalMetrics adapts the registry onto persist.Metrics. Per-kind
// counters are resolved up front: Append runs on the submission hot path.
type journalMetrics struct {
	appends  map[byte]*obs.Counter
	unknown  *obs.Counter
	bytes    *obs.Counter
	writeSec *obs.Histogram
	fsyncs   *obs.Counter
	fsyncSec *obs.Histogram
}

func newJournalMetrics(reg *obs.Registry) *journalMetrics {
	jm := &journalMetrics{
		appends:  make(map[byte]*obs.Counter),
		unknown:  reg.Counter(promexport.Name("abgd_journal_appends_total", "kind", "unknown")),
		bytes:    reg.Counter("abgd_journal_append_bytes_total"),
		writeSec: reg.Histogram("abgd_journal_append_seconds", journalBuckets),
		fsyncs:   reg.Counter("abgd_journal_fsyncs_total"),
		fsyncSec: reg.Histogram("abgd_journal_fsync_seconds", journalBuckets),
	}
	for _, kind := range []byte{persist.KindHeader, persist.KindSubmit,
		persist.KindAdmit, persist.KindDrain, persist.KindSnapshot, persist.KindStep,
		persist.KindEpoch} {
		jm.appends[kind] = reg.Counter(
			promexport.Name("abgd_journal_appends_total", "kind", persist.KindName(kind)))
	}
	return jm
}

func (jm *journalMetrics) JournalAppend(kind byte, n int, d time.Duration) {
	c, ok := jm.appends[kind]
	if !ok {
		c = jm.unknown
	}
	c.Inc()
	jm.bytes.Add(int64(n))
	jm.writeSec.Observe(d.Seconds())
}

func (jm *journalMetrics) JournalSync(d time.Duration) {
	jm.fsyncs.Inc()
	jm.fsyncSec.Observe(d.Seconds())
}

// SampleMetrics refreshes the scrape-sampled gauges and folds the hub's
// atomic tallies into their counters.
func (s *Server) SampleMetrics() {
	m := s.metrics
	s.mu.Lock()
	m.queueDepth.Set(int64(len(s.queue)))
	m.snapAge.Set(int64(s.eng.QuantaElapsed() - s.lastSnapQ))
	j := s.journal
	s.mu.Unlock()
	if j != nil {
		m.lag.Set(int64(j.Lag()))
	}
	m.epochG.Set(int64(s.epoch.Load()))
	m.sseSubs.Set(s.hub.Clients())
	m.mu.Lock()
	if d := s.hub.Dropped(); d > m.droppedSeen {
		m.sseDropped.Add(d - m.droppedSeen)
		m.droppedSeen = d
	}
	if e := s.hub.Evicted(); e > m.evictedSeen {
		m.sseEvicted.Add(e - m.evictedSeen)
		m.evictedSeen = e
	}
	m.mu.Unlock()
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.SampleMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = promexport.Write(w, s.metrics.reg)
}
