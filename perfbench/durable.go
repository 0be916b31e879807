package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"abg/internal/obs"
	"abg/internal/obs/promexport"
	"abg/internal/persist"
	"abg/internal/server"
	"abg/internal/xrand"
)

// daemon-durable sizing. One client submits a burst of small fork-join jobs
// to a journaled leader (fsync on every record, default snapshots) that a
// follower tails; the burst is admitted at one boundary and drained (see
// holdTick), so every quantum appends and fsyncs a step record, every 64th
// writes a snapshot of every job, and the follower applies it all.
// Throughput is tied to a fixed job count per episode, because every
// snapshot serialises every job ever admitted: jobs/s falls as one daemon's
// history grows, so only episodes of equal size compare.
const (
	durableJobs  = 300
	durableP     = 128
	durableL     = 100
	durableCLMin = 2
	durableCLMax = 40
)

// durableSpecs draws the burst from the seed: one small fork-join batch job
// per request.
func durableSpecs(seed uint64) []server.JobRequest {
	rng := xrand.New(seed)
	specs := make([]server.JobRequest, durableJobs)
	for i := range specs {
		specs[i] = server.JobRequest{
			Kind:  "batch",
			CL:    spreadCL(i, durableCLMin, durableCLMax),
			Seed:  rng.Uint64() | 1, // zero would select the daemon's own seed
			Count: 1,
			Key:   fmt.Sprintf("durable-%d", i),
		}
	}
	return specs
}

func runDaemonDurable(e *env, traced bool) (*phase, error) {
	p := &phase{}
	s := series{}
	var submitMs, turnMs [][]float64
	reset := func() { s, submitMs, turnMs = series{}, nil, nil }
	err := episodes(e.seconds, !traced, reset, func(ep int) error {
		return durableEpisode(e, p, s, ep, traced, &submitMs, &turnMs)
	})
	if err != nil {
		return nil, err
	}
	p.throughput = median(s["job_quanta_per_s"])
	if traced {
		reportLayers(p, s, submitMs, turnMs)
		return p, nil
	}
	reportEndToEnd(p, s, turnMs)
	return p, nil
}

// durableEpisode boots a journaled leader and a follower tailing it, submits
// the burst, drains, waits for the follower to apply the whole journal, and
// checks the outputs.
func durableEpisode(e *env, p *phase, s series, ep int, traced bool, submitMs, turnMs *[][]float64) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := filepath.Join(e.work, fmt.Sprintf("durable-%d", ep))
	defer os.RemoveAll(dir)
	leaderDir, followerDir := filepath.Join(dir, "leader"), filepath.Join(dir, "follower")
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	probe := &http.Client{Transport: &http.Transport{}}
	defer probe.CloseIdleConnections()

	heap0 := liveHeapMB()
	specs := durableSpecs(e.seed)
	t0 := now()
	reg := obs.NewRegistry()
	base := server.Config{Addr: "127.0.0.1:0", P: durableP, L: durableL,
		Clock: server.ClockWall, Tick: holdTick, QueueLimit: durableJobs, Seed: e.seed}
	lcfg := base
	lcfg.JournalDir, lcfg.Metrics = leaderDir, reg
	leader, err := server.New(lcfg)
	if err != nil {
		return err
	}
	if err := leader.Start(ctx); err != nil {
		return err
	}
	leaderURL := "http://" + leader.Addr()
	fcfg := base
	fcfg.JournalDir, fcfg.FollowURL = followerDir, leaderURL
	follower, err := server.New(fcfg)
	if err != nil {
		return err
	}
	if err := follower.Start(ctx); err != nil {
		return err
	}
	followerURL := "http://" + follower.Addr()
	client := server.NewClient(leaderURL)
	client.HTTP = &http.Client{Transport: transport}
	watch := watchEvents(ctx, leaderURL, 1)
	if err := waitFor(ctx, 10*time.Second, func() (bool, error) {
		var r server.ReplicationDTO
		if err := getJSON(ctx, probe, followerURL+"/api/v1/replication", &r); err != nil || r.Tail == nil || !r.Tail.Connected {
			return false, nil
		}
		st, err := client.State(ctx)
		return err == nil && st.SSEClients == 1, nil
	}); err != nil {
		return fmt.Errorf("follower or event subscriber never attached: %w", err)
	}
	s.put("setup_s", float64(now()-t0)/1e9)

	// In the traced phase a sampler polls the follower's health for its
	// replication lag while the burst runs.
	var lagMax atomic.Int64
	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	if traced {
		lagWG.Add(1)
		go func() {
			defer lagWG.Done()
			for {
				var h server.HealthDTO
				if getJSON(ctx, probe, followerURL+"/healthz", &h) == nil && h.ReplLagBytes > lagMax.Load() {
					lagMax.Store(h.ReplLagBytes)
				}
				select {
				case <-stopLag:
					return
				case <-time.After(20 * time.Millisecond):
				}
			}
		}()
	}

	var rt *runtimeDelta
	if traced {
		rt = startRuntimeDelta()
	}
	start := now()
	acked, submitted, submitLat := submitBurst(ctx, p, e.tracer, client, specs)
	if err := client.Drain(ctx, true); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	drained := now()
	wall := float64(drained-start) / 1e9
	var lrep server.ReplicationDTO
	if err := getJSON(ctx, probe, leaderURL+"/api/v1/replication", &lrep); err != nil {
		return err
	}
	if err := waitFor(ctx, 30*time.Second, func() (bool, error) {
		var r server.ReplicationDTO
		err := getJSON(ctx, probe, followerURL+"/api/v1/replication", &r)
		return err == nil && r.JournalBytes >= lrep.JournalBytes, nil
	}); err != nil {
		return fmt.Errorf("follower never caught up: %w", err)
	}
	catchup := float64(now()-drained) / 1e6
	close(stopLag)
	lagWG.Wait()
	s.put("peak_heap_mb", liveHeapMB()-heap0)

	out := durableOutcome{Acked: acked}
	if out.Leader, err = client.Jobs(ctx); err != nil {
		return err
	}
	fclient := server.NewClient(followerURL)
	fclient.HTTP = probe
	if out.Follower, err = fclient.Jobs(ctx); err != nil {
		return err
	}
	state, err := client.State(ctx)
	if err != nil {
		return err
	}
	out.Published, out.Dropped = state.LastEventID, state.SSEDropped
	if traced {
		// A scrape folds the SSE hub's tallies into the registry's counters.
		if _, err := scrape(ctx, probe, leaderURL+"/metrics"); err != nil {
			return err
		}
	}
	if err := leader.Wait(); err != nil {
		return fmt.Errorf("leader: %w", err)
	}
	if err := waitDone(follower.Wait, 30*time.Second); err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	if err := watch.wait(); err != nil {
		return fmt.Errorf("event subscriber: %w", err)
	}
	out.Stream = watch.tally
	if out.Reference, err = server.ReferenceResult(leaderDir); err != nil {
		return err
	}
	if out.LeaderJournal, err = os.ReadFile(filepath.Join(leaderDir, persist.JournalFile)); err != nil {
		return err
	}
	if out.FollowerJournal, err = os.ReadFile(filepath.Join(followerDir, persist.JournalFile)); err != nil {
		return err
	}
	for _, problem := range checkDurable(out) {
		p.fail("daemon-durable episode %d: %s", ep, problem)
	}
	*submitMs, *turnMs = append(*submitMs, submitLat), append(*turnMs, watch.turnarounds(submitted))

	jobQuanta := 0
	for _, st := range out.Leader {
		jobQuanta += st.NumQuanta
	}
	s.put("job_quanta_per_s", float64(jobQuanta)/wall)
	s.put("jobs_per_s", float64(len(acked))/wall)
	if !traced {
		return nil
	}
	rt.add(s, float64(jobQuanta))
	addServerLayers(s, reg, state, wall)
	ms := func(name string, q float64) float64 { return findHist(reg, name).Quantile(q) * 1e3 }
	s.put("persist.appends", float64(sumCounters(reg, "abgd_journal_appends_total")))
	s.put("persist.append_bytes", float64(sumCounters(reg, "abgd_journal_append_bytes_total")))
	s.put("persist.append_ms.p99", ms("abgd_journal_append_seconds", 0.99))
	s.put("persist.fsyncs", float64(sumCounters(reg, "abgd_journal_fsyncs_total")))
	s.put("persist.fsync_ms.p50", ms("abgd_journal_fsync_seconds", 0.5))
	s.put("persist.fsync_ms.p99", ms("abgd_journal_fsync_seconds", 0.99))
	s.put("persist.snapshots", float64(sumCounters(reg, "abgd_snapshots_total")))
	s.put("replica.lag_bytes.max", float64(lagMax.Load()))
	s.put("replica.catchup_ms", catchup)
	addClientLayers(s, client, p)
	return nil
}

// addServerLayers reports the server.* metrics of one daemon episode from
// its registry and final state.
func addServerLayers(s series, reg *obs.Registry, state server.StateDTO, wall float64) {
	route := func(r string) float64 {
		return findHist(reg, promexport.Name("abgd_http_request_seconds", "route", r)).Quantile(0.5) * 1e3
	}
	s.put("server.quanta", float64(state.QuantaElapsed))
	s.put("server.ns_per_quantum", wall*1e9/float64(state.QuantaElapsed))
	s.put("server.sse_events", float64(state.LastEventID))
	s.put("server.sse_evicted", float64(sumCounters(reg, "abgd_sse_ring_evictions_total")))
	s.put("server.sse_dropped", float64(sumCounters(reg, "abgd_sse_dropped_total")))
	s.put("server.http_ms.p50.jobs", route("/api/v1/jobs"))
	deprived := sumCounters(reg, "sim_deprived_quanta_total")
	if q := sumCounters(reg, "sim_quanta_total"); q > 0 {
		s.put("alloc.deprived_ratio", float64(deprived)/float64(q))
	}
}

// addClientLayers reports the client.* metrics: retries after 429 or a
// transport failure, attempts abandoned at their deadline, and the share of
// operations that failed after the client's own retries.
func addClientLayers(s series, c *server.Client, p *phase) {
	s.put("client.retries", float64(c.Retried429.Load()+c.RetriedTransport.Load()))
	s.put("client.deadlines", float64(c.DeadlineExceeded.Load()))
	s.put("client.failed_ratio", float64(p.failed)/float64(p.attempted))
}

// getJSON GETs url and decodes the body whatever the status: /healthz
// answers 503 with a full body when the daemon is not ok.
func getJSON(ctx context.Context, c *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// waitFor polls cond every 100µs until it holds or d passes; set-up times
// include its wait, so the poll interval must stay well below them.
func waitFor(ctx context.Context, d time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(d)
	for {
		ok, err := cond()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", d)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// waitDone runs wait, giving up after d.
func waitDone(wait func() error, d time.Duration) error {
	ch := make(chan error, 1)
	go func() { ch <- wait() }()
	select {
	case err := <-ch:
		return err
	case <-time.After(d):
		return fmt.Errorf("did not stop within %v", d)
	}
}
