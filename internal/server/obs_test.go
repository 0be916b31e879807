package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"abg/internal/obs"
)

// scrape fetches /metrics, checks the exposition-format basics (content
// type, TYPE-before-samples, parseable sample values), and returns the
// samples keyed by full series name (labels included) plus the family types.
func scrape(t *testing.T, base string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	samples = make(map[string]float64)
	types = make(map[string]string)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			if _, dup := types[f[2]]; dup {
				t.Fatalf("duplicate TYPE for %q", f[2])
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// A sample: name[{labels}] value. The value is the last field; the
		// name may contain spaces only inside label values, so split from
		// the right.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		name, val := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		family := name
		if j := strings.IndexByte(family, '{'); j >= 0 {
			family = family[:j]
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(family, suffix)
			if base != family && types[base] == "histogram" {
				family = base
				break
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("sample %q precedes its TYPE line", line)
		}
		if _, dup := samples[name]; dup {
			t.Fatalf("duplicate series %q", name)
		}
		samples[name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	return samples, types
}

// TestMetricsExposition boots a journaled daemon, runs jobs through it with
// an SSE subscriber attached, and checks that one /metrics scrape covers the
// engine, HTTP, SSE, journal, and snapshot families with sane values.
func TestMetricsExposition(t *testing.T) {
	_, base := startServer(t, Config{
		P: 16, L: 50, Clock: ClockVirtual, Scheduler: "abg",
		JournalDir: t.TempDir(), SnapshotEvery: 2,
	})

	// Hold an SSE subscription open so the subscriber gauge is non-zero.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/events", nil)
	sse, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /api/v1/events: %v", err)
	}
	defer sse.Body.Close()
	sc := bufio.NewScanner(sse.Body)
	if !sc.Scan() { // retry hint: subscription is registered
		t.Fatalf("no SSE preamble: %v", sc.Err())
	}

	c := NewClient(base)
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(ctx, JobRequest{Kind: "fullPar", Width: 4, Quanta: 3}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	waitCompleted(t, base, 3)

	samples, types := scrape(t, base)

	// Engine families, fed by the metrics subscriber into the same registry.
	if samples["sim_jobs_completed_total"] != 3 {
		t.Fatalf("sim_jobs_completed_total = %v, want 3", samples["sim_jobs_completed_total"])
	}
	if samples["sim_quanta_total"] <= 0 || samples["sim_work_cycles_total"] <= 0 {
		t.Fatalf("engine counters missing: quanta=%v work=%v",
			samples["sim_quanta_total"], samples["sim_work_cycles_total"])
	}
	if types["sim_quantum_parallelism"] != "histogram" {
		t.Fatalf("sim_quantum_parallelism type = %q", types["sim_quantum_parallelism"])
	}

	// HTTP families: the three submissions all answered 202 on this route.
	post := `abgd_http_requests_total{code="202",method="POST",route="/api/v1/jobs"}`
	if samples[post] != 3 {
		t.Fatalf("%s = %v, want 3", post, samples[post])
	}
	if types["abgd_http_requests_total"] != "counter" {
		t.Fatalf("abgd_http_requests_total type = %q", types["abgd_http_requests_total"])
	}
	histCount := `abgd_http_request_seconds_count{route="/api/v1/jobs"}`
	if samples[histCount] < 3 {
		t.Fatalf("%s = %v, want >= 3", histCount, samples[histCount])
	}
	if samples[`abgd_http_request_seconds_bucket{route="/api/v1/jobs",le="+Inf"}`] != samples[histCount] {
		t.Fatal("+Inf bucket does not equal histogram count")
	}
	if samples["abgd_http_inflight_requests"] != 1 { // the scrape itself (SSE is /api/v1/events... also in flight)
		// Both the scrape and the open SSE stream are in flight.
		if samples["abgd_http_inflight_requests"] != 2 {
			t.Fatalf("abgd_http_inflight_requests = %v, want 1 or 2",
				samples["abgd_http_inflight_requests"])
		}
	}

	// SSE: one subscriber is connected right now.
	if samples["abgd_sse_subscribers"] != 1 {
		t.Fatalf("abgd_sse_subscribers = %v, want 1", samples["abgd_sse_subscribers"])
	}

	// Journal: header isn't counted (written before metrics attach), but the
	// three submits and their admits are, each fsynced under the default
	// "always" policy, leaving zero lag.
	if v := samples[`abgd_journal_appends_total{kind="submit"}`]; v != 3 {
		t.Fatalf(`appends{kind="submit"} = %v, want 3`, v)
	}
	if samples[`abgd_journal_appends_total{kind="admit"}`] <= 0 {
		t.Fatal("no admit records counted")
	}
	if samples["abgd_journal_append_bytes_total"] <= 0 || samples["abgd_journal_fsyncs_total"] <= 0 {
		t.Fatalf("journal byte/fsync counters missing: bytes=%v fsyncs=%v",
			samples["abgd_journal_append_bytes_total"], samples["abgd_journal_fsyncs_total"])
	}
	if samples["abgd_journal_lag_records"] != 0 {
		t.Fatalf("abgd_journal_lag_records = %v, want 0 under fsync=always",
			samples["abgd_journal_lag_records"])
	}
	if samples["abgd_snapshots_total"] <= 0 {
		t.Fatal("no snapshots counted despite SnapshotEvery=2")
	}
	if _, ok := samples["abgd_snapshot_age_quanta"]; !ok {
		t.Fatal("abgd_snapshot_age_quanta missing")
	}
	if samples["abgd_recovery_recovered"] != 0 {
		t.Fatal("fresh boot reported a recovery")
	}

	// Counters must be monotonic across scrapes.
	again, _ := scrape(t, base)
	for name, v := range samples {
		family := name
		if j := strings.IndexByte(family, '{'); j >= 0 {
			family = family[:j]
		}
		if types[family] == "counter" && again[name] < v {
			t.Fatalf("counter %s went backwards: %v -> %v", name, v, again[name])
		}
	}
}

// TestMetricsRejectionsAndStatePercentiles drives the admission queue into
// 429s and checks both the rejection counter and StateDTO's aggregate HTTP
// latency fields.
func TestMetricsRejectionsAndStatePercentiles(t *testing.T) {
	_, base := startServer(t, Config{
		P: 8, L: 50, Clock: ClockWall, Tick: time.Hour, QueueLimit: 4,
	})
	if code, _, _ := postJobs(t, base, JobRequest{Kind: "serial", Quanta: 1, Count: 4}); code != http.StatusAccepted {
		t.Fatal("fill failed")
	}
	if code, _, _ := postJobs(t, base, JobRequest{Kind: "serial", Quanta: 1}); code != http.StatusTooManyRequests {
		t.Fatal("overflow not rejected")
	}

	samples, _ := scrape(t, base)
	if samples["abgd_admission_rejected_total"] != 1 {
		t.Fatalf("abgd_admission_rejected_total = %v, want 1", samples["abgd_admission_rejected_total"])
	}
	if samples["abgd_admission_queue_depth"] != 4 {
		t.Fatalf("abgd_admission_queue_depth = %v, want 4", samples["abgd_admission_queue_depth"])
	}
	rej := `abgd_http_requests_total{code="429",method="POST",route="/api/v1/jobs"}`
	if samples[rej] != 1 {
		t.Fatalf("%s = %v, want 1", rej, samples[rej])
	}

	var st StateDTO
	getJSON(t, base+"/api/v1/state", &st)
	if st.HTTPRequests < 3 { // two submits + the scrape at minimum
		t.Fatalf("state.httpRequests = %d, want >= 3", st.HTTPRequests)
	}
	if st.HTTPLatencyP50Ms < 0 || st.HTTPLatencyP95Ms < st.HTTPLatencyP50Ms ||
		st.HTTPLatencyP99Ms < st.HTTPLatencyP95Ms {
		t.Fatalf("latency percentiles not ordered: p50=%v p95=%v p99=%v",
			st.HTTPLatencyP50Ms, st.HTTPLatencyP95Ms, st.HTTPLatencyP99Ms)
	}
}

// TestTimelineEndpoint covers the per-job introspection ring: executed
// quanta for a finished job, the queued fallback, and the error shapes.
func TestTimelineEndpoint(t *testing.T) {
	_, base := startServer(t, Config{
		P: 8, L: 50, Clock: ClockVirtual, Scheduler: "abg",
	})
	ctx := context.Background()
	c := NewClient(base)
	if _, err := c.Submit(ctx, JobRequest{Kind: "fullPar", Width: 4, Quanta: 3}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitCompleted(t, base, 1)

	tl, err := c.Timeline(ctx, 0)
	if err != nil {
		t.Fatalf("Timeline: %v", err)
	}
	if tl.ID != 0 || tl.State != "done" || tl.Ring != 256 {
		t.Fatalf("timeline header = %+v", tl)
	}
	if len(tl.Samples) == 0 {
		t.Fatal("finished job has no timeline samples")
	}
	last := tl.Samples[len(tl.Samples)-1]
	if !last.Completed {
		t.Fatalf("last sample not marked completed: %+v", last)
	}
	for i, s := range tl.Samples {
		if s.Allotment <= 0 || s.Steps <= 0 {
			t.Fatalf("sample %d lacks execution data: %+v", i, s)
		}
		if i > 0 && s.Time <= tl.Samples[i-1].Time {
			t.Fatalf("samples not chronological at %d: %+v", i, tl.Samples)
		}
	}

	if code := getJSON(t, base+"/api/v1/jobs/99/timeline", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job timeline = %d, want 404", code)
	}
	if code := getJSON(t, base+"/api/v1/jobs/zzz/timeline", nil); code != http.StatusBadRequest {
		t.Fatalf("bad job id timeline = %d, want 400", code)
	}
}

// TestTimelineQueuedFallback: a job the engine has not admitted yet answers
// with its queued state and an empty sample list, not a 404.
func TestTimelineQueuedFallback(t *testing.T) {
	_, base := startServer(t, Config{
		P: 8, L: 50, Clock: ClockWall, Tick: time.Hour, QueueLimit: 4,
	})
	if code, _, _ := postJobs(t, base, JobRequest{Kind: "serial", Quanta: 1}); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	var tl TimelineDTO
	if code := getJSON(t, base+"/api/v1/jobs/0/timeline", &tl); code != http.StatusOK {
		t.Fatalf("queued timeline = %d, want 200", code)
	}
	if tl.State != "queued" || len(tl.Samples) != 0 {
		t.Fatalf("queued timeline = %+v", tl)
	}
}

// TestTraceEndToEnd follows a Client submission through the trace store:
// the ack echoes the generated id, and the finished trace holds the full
// lifecycle — submit, queued, per-quantum spans, completion — in both JSON
// and Perfetto form.
func TestTraceEndToEnd(t *testing.T) {
	_, base := startServer(t, Config{
		P: 8, L: 50, Clock: ClockVirtual, Scheduler: "abg",
	})
	ctx := context.Background()
	c := NewClient(base)
	ack, err := c.Submit(ctx, JobRequest{Kind: "fullPar", Width: 4, Quanta: 3, Count: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if ack.TraceID == "" {
		t.Fatal("ack does not echo a trace id")
	}
	waitCompleted(t, base, 2)

	tr, err := c.Trace(ctx, ack.TraceID)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if !reflect.DeepEqual(tr.Jobs, ack.IDs) || tr.Done != 2 || tr.Truncated {
		t.Fatalf("trace header = %+v, ids %v", tr, ack.IDs)
	}
	byName := map[string]int{}
	quanta := 0
	for _, sp := range tr.Spans {
		if strings.HasPrefix(sp.Name, "q") && sp.Cat == "quantum" {
			quanta++
			if sp.Dur <= 0 {
				t.Fatalf("quantum span has no duration: %+v", sp)
			}
			continue
		}
		byName[sp.Name]++
	}
	if byName["submit"] != 2 || byName["queued"] != 2 || byName["complete"] != 2 {
		t.Fatalf("lifecycle spans = %v (want 2 of each)", byName)
	}
	if quanta < 2 {
		t.Fatalf("only %d quantum spans", quanta)
	}

	// Perfetto form: a Chrome trace-event JSON object with one event per
	// span plus metadata records.
	resp, err := http.Get(base + "/api/v1/traces/" + ack.TraceID + "?format=perfetto")
	if err != nil {
		t.Fatalf("GET perfetto: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("perfetto output is not JSON: %v\n%s", err, raw)
	}
	if len(doc.TraceEvents) < len(tr.Spans) {
		t.Fatalf("perfetto has %d events for %d spans", len(doc.TraceEvents), len(tr.Spans))
	}

	if code := getJSON(t, base+"/api/v1/traces/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", code)
	}
}

// TestHealthVerdicts exercises /healthz's ok, degraded (journal lag and
// snapshot age), and failing answers.
func TestHealthVerdicts(t *testing.T) {
	t.Run("ok", func(t *testing.T) {
		_, base := startServer(t, Config{
			P: 8, L: 50, Clock: ClockVirtual, JournalDir: t.TempDir(),
		})
		var h HealthDTO
		if code := getJSON(t, base+"/healthz", &h); code != http.StatusOK {
			t.Fatalf("healthz = %d", code)
		}
		if h.Status != "ok" || h.LagMax != 1024 || h.AgeMax != 8*64 || len(h.Reasons) != 0 {
			t.Fatalf("health = %+v", h)
		}
		if h.Invariants != "off" { // no fault spec, no checker
			t.Fatalf("invariants = %q", h.Invariants)
		}
	})

	t.Run("degraded_journal_lag", func(t *testing.T) {
		_, base := startServer(t, Config{
			P: 8, L: 50, Clock: ClockWall, Tick: time.Hour, QueueLimit: 16,
			JournalDir: t.TempDir(), Fsync: "never", JournalLagMax: 2,
		})
		// Each submission appends one unsynced record; the hour tick means no
		// admit/snapshot interferes.
		for i := 0; i < 3; i++ {
			if code, _, _ := postJobs(t, base, JobRequest{Kind: "serial", Quanta: 1}); code != http.StatusAccepted {
				t.Fatal("submit failed")
			}
		}
		var h HealthDTO
		if code := getJSON(t, base+"/healthz", &h); code != http.StatusServiceUnavailable {
			t.Fatalf("healthz = %d, want 503", code)
		}
		if h.Status != "degraded" || h.JournalLag <= h.LagMax {
			t.Fatalf("health = %+v", h)
		}
		if len(h.Reasons) == 0 || !strings.Contains(h.Reasons[0], "journal lag") {
			t.Fatalf("reasons = %v", h.Reasons)
		}
	})

	t.Run("degraded_snapshot_age", func(t *testing.T) {
		_, base := startServer(t, Config{
			P: 8, L: 50, Clock: ClockVirtual, JournalDir: t.TempDir(),
			SnapshotEvery: 10000, SnapshotAgeMax: 2,
		})
		if code, _, _ := postJobs(t, base, JobRequest{Kind: "fullPar", Width: 4, Quanta: 6}); code != http.StatusAccepted {
			t.Fatal("submit failed")
		}
		waitCompleted(t, base, 1)
		var h HealthDTO
		if code := getJSON(t, base+"/healthz", &h); code != http.StatusServiceUnavailable {
			t.Fatalf("healthz = %d, want 503", code)
		}
		if h.Status != "degraded" || h.SnapshotAge <= h.AgeMax {
			t.Fatalf("health = %+v", h)
		}
		if len(h.Reasons) == 0 || !strings.Contains(h.Reasons[0], "snapshot") {
			t.Fatalf("reasons = %v", h.Reasons)
		}
	})

	t.Run("failing_fatal", func(t *testing.T) {
		s, base := startServer(t, Config{P: 8, L: 50, Clock: ClockVirtual})
		s.mu.Lock()
		s.fatal = io.ErrUnexpectedEOF
		s.mu.Unlock()
		var h HealthDTO
		if code := getJSON(t, base+"/healthz", &h); code != http.StatusServiceUnavailable {
			t.Fatalf("healthz = %d, want 503", code)
		}
		if h.Status != "failing" || len(h.Reasons) == 0 || !strings.Contains(h.Reasons[0], "fatal") {
			t.Fatalf("health = %+v", h)
		}
		s.mu.Lock()
		s.fatal = nil // let the drain in t.Cleanup finish cleanly
		s.mu.Unlock()
	})

	t.Run("checker_on", func(t *testing.T) {
		_, base := startServer(t, Config{
			P: 8, L: 50, Clock: ClockVirtual, FaultSpec: "noise=0.1,seed=3",
		})
		var h HealthDTO
		if code := getJSON(t, base+"/healthz", &h); code != http.StatusOK {
			t.Fatalf("healthz = %d", code)
		}
		if h.Invariants != "ok" {
			t.Fatalf("invariants = %q, want ok", h.Invariants)
		}
	})
}

// TestMetricsConcurrentWithStreamAndStepping hammers /metrics from several
// goroutines while jobs run, the SSE stream fans out, and state is polled —
// the scenario the race detector needs to see. Run under -race via check.sh.
func TestMetricsConcurrentWithStreamAndStepping(t *testing.T) {
	_, base := startServer(t, Config{
		P: 16, L: 50, Clock: ClockVirtual, Scheduler: "abg",
		JournalDir: t.TempDir(), SnapshotEvery: 2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Add(1)
	go func() { // SSE consumer
		defer wg.Done()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
	}()

	c := NewClient(base)
	for i := 0; i < 5; i++ {
		if _, err := c.Submit(ctx, JobRequest{Kind: "batch", Seed: uint64(i + 1), Count: 2}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	waitCompleted(t, base, 10)
	cancel()
	wg.Wait()

	samples, _ := scrape(t, base)
	if samples["sim_jobs_completed_total"] != 10 {
		t.Fatalf("sim_jobs_completed_total = %v, want 10", samples["sim_jobs_completed_total"])
	}
}

// TestObservabilityDoesNotPerturbRecovery runs the full instrumentation
// stack — shared metrics registry, traced submissions, SSE subscriber,
// timeline ring — over a crash and recovery, then checks the final per-job
// results are bit-identical to ReferenceResult's uninstrumented replay of
// the same journal.
func TestObservabilityDoesNotPerturbRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := crashCfg(dir, "restart=0.3,restartat=1,maxrestarts=2,seed=5")
	cfg.Metrics = obs.NewRegistry()
	cfg.SnapshotEvery = 2

	s1, base := startCrashable(t, cfg)
	ctx := context.Background()
	c := NewClient(base)
	for i := 0; i < 4; i++ {
		if _, err := c.Submit(ctx, JobRequest{
			Kind: "batch", Seed: uint64(100 + i), Key: "obs-key-" + strconv.Itoa(i),
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	waitQuanta(t, s1, 3, 4)
	crash(t, s1)

	cfg.Metrics = obs.NewRegistry() // a restarted process starts fresh
	s2, base2 := startCrashable(t, cfg)
	var rec RecoveryDTO
	getJSON(t, base2+"/api/v1/recovery", &rec)
	if !rec.Recovered {
		t.Fatalf("did not recover: %+v", rec)
	}
	// Recovery gauges reflect the replay.
	got, _ := scrape(t, base2)
	if got["abgd_recovery_recovered"] != 1 || got["abgd_recovery_resumed_jobs"]+got["abgd_recovery_requeued_jobs"] != 4 {
		t.Fatalf("recovery gauges = recovered %v, resumed %v, requeued %v",
			got["abgd_recovery_recovered"], got["abgd_recovery_resumed_jobs"],
			got["abgd_recovery_requeued_jobs"])
	}
	c2 := NewClient(base2)
	for i := 4; i < 6; i++ {
		if _, err := c2.Submit(ctx, JobRequest{
			Kind: "batch", Seed: uint64(100 + i), Key: "obs-key-" + strconv.Itoa(i),
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	s2.Drain()
	if err := s2.Wait(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	live := liveStatuses(s2)
	ref, err := ReferenceResult(dir)
	if err != nil {
		t.Fatalf("ReferenceResult: %v", err)
	}
	if len(live) != 6 || len(ref) != 6 {
		t.Fatalf("job counts: live %d, ref %d, want 6", len(live), len(ref))
	}
	for i := range ref {
		if !reflect.DeepEqual(live[i], ref[i]) {
			t.Errorf("job %d diverged:\n live %+v\n ref  %+v", i, live[i], ref[i])
		}
	}
}
