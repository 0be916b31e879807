package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"abg/internal/alloc"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/sched"
)

// epoch anchors every timestamp the benchmark takes; now reads the monotonic
// clock relative to it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// clockCost is what an empty timed region measures: the share of every
// timed call that is the clock read itself. Layer busy times subtract it.
var clockCost = calibrateClock()

func calibrateClock() int64 {
	xs := make([]float64, 10001)
	for i := range xs {
		t0 := now()
		xs[i] = float64(now() - t0)
	}
	return int64(median(xs))
}

// maxSpans bounds the spans kept in memory; later ones are counted only.
const maxSpans = 1 << 20

// span is one timed call the benchmark made into a layer. Every span is a
// root: the calls inside it are aggregated into layerStats, not recorded.
type span struct {
	name       string
	start, end int64 // ns since epoch
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{} }

// record stores a finished span; a nil tracer records nothing, so untraced
// code can call it unconditionally.
func (t *tracer) record(name string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{name, start, end})
}

func (t *tracer) kept() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write saves the spans in the Chrome/Perfetto trace-event format.
func (t *tracer) write(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	t.mu.Lock()
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1}
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// kernelSampleEvery is the 1-in-N sample of job.Instance.Step calls that get
// timed: a Step costs tens of nanoseconds, so reading the clock around every
// call would more than double the kernel's cost. Every call is counted.
const kernelSampleEvery = 64

// layerStats accumulates the counts and busy time of the layers the
// benchmark wraps. One engine steps serially, so no locking is needed; the
// cluster's policy wrapper is called from the cluster's one clock goroutine.
type layerStats struct {
	kernelCalls, kernelTasks  int64
	kernelSampled, kernelNs   int64 // timed sample of calls, and its time
	feedbackCalls, feedbackNs int64
	allotCalls, allotNs       int64
	firstAllot, lastAllot     int64 // start times, for the round period
}

// kernelEstimateNs scales the sampled kernel time to every call.
func (s *layerStats) kernelEstimateNs() float64 {
	if s.kernelSampled == 0 {
		return 0
	}
	return float64(s.kernelNs) * float64(s.kernelCalls) / float64(s.kernelSampled)
}

// tracedInstance counts every Step of a job and times a fixed sample.
type tracedInstance struct {
	job.Instance
	s *layerStats
}

func (t *tracedInstance) Step(p int, order job.Order, buf []job.LevelCount) (int, []job.LevelCount) {
	s := t.s
	s.kernelCalls++
	if s.kernelCalls%kernelSampleEvery != 0 {
		n, out := t.Instance.Step(p, order, buf)
		s.kernelTasks += int64(n)
		return n, out
	}
	t0 := now()
	n, out := t.Instance.Step(p, order, buf)
	s.kernelNs += now() - t0 - clockCost
	s.kernelSampled++
	s.kernelTasks += int64(n)
	return n, out
}

// tracedPolicy times every request the controller computes.
type tracedPolicy struct {
	feedback.Policy
	s *layerStats
}

func (t *tracedPolicy) InitialRequest() float64 {
	t0 := now()
	r := t.Policy.InitialRequest()
	t.s.feedbackNs += now() - t0 - clockCost
	t.s.feedbackCalls++
	return r
}

func (t *tracedPolicy) NextRequest(prev sched.QuantumStats) float64 {
	t0 := now()
	r := t.Policy.NextRequest(prev)
	t.s.feedbackNs += now() - t0 - clockCost
	t.s.feedbackCalls++
	return r
}

// tracedMulti times every allocation round.
type tracedMulti struct {
	inner alloc.Multi
	s     *layerStats
}

func (t *tracedMulti) Name() string { return t.inner.Name() }

func (t *tracedMulti) Allot(requests []int, p int) []int {
	t0 := now()
	out := t.inner.Allot(requests, p)
	s := t.s
	s.allotNs += now() - t0 - clockCost
	if s.allotCalls == 0 {
		s.firstAllot = t0
	}
	s.lastAllot = t0
	s.allotCalls++
	return out
}
