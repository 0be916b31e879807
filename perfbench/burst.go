package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"abg/internal/alloc"
	"abg/internal/cluster"
	"abg/internal/obs"
	"abg/internal/server"
	"abg/internal/xrand"
)

// holdTick is the quantum tick of the daemons that take a burst: longer than
// any episode, so the whole burst lands within one tick and every job is
// admitted at the same boundary when the drain starts; the drain then steps
// the daemon as fast as it can. Under the virtual clock a daemon steps while
// the burst is still arriving, and the schedule, and with it the work done,
// depends on how fast quanta run against HTTP submissions: one seed's
// cluster-burst episodes then ranged from 74 to 221 jobs/s.
const holdTick = time.Hour

// cluster-burst sizing. 4 shards share P = 128 while a burst of 400 jobs,
// with transition factors up to 100, is in flight: most jobs are deprived
// and run on narrow allotments, and every quantum of every job publishes
// events into the shards' and the front door's replay rings. Phase lengths
// are shrunk 8-fold so the burst holds many small jobs: more samples per
// episode, and less of a run's total work rides on a few large jobs.
const (
	burstShards = 4
	burstJobs   = 400
	burstShrink = 8
	burstP      = 128
	burstL      = 100
	burstCLMin  = 2
	burstCLMax  = 100
)

// burstSpecs draws the burst's submissions from the seed: one fork-join job
// of the paper's §7 family per request.
func burstSpecs(seed uint64) []server.JobRequest {
	rng := xrand.New(seed)
	specs := make([]server.JobRequest, burstJobs)
	for i := range specs {
		specs[i] = server.JobRequest{
			Kind:   "batch",
			CL:     spreadCL(i, burstCLMin, burstCLMax),
			Shrink: burstShrink,
			Seed:   rng.Uint64() | 1, // zero would select the daemon's own seed
			Count:  1,
			Key:    fmt.Sprintf("burst-%d", i),
		}
	}
	return specs
}

// expectedWork is Σ T1 of the specs, built offline exactly as a shard
// builds them.
func expectedWork(specs []server.JobRequest, l int) (int64, error) {
	var sum int64
	for _, spec := range specs {
		req := spec
		if err := req.Normalize(); err != nil {
			return 0, err
		}
		for i := 0; i < req.Count; i++ {
			sum += req.BuildProfile(i, l).Work()
		}
	}
	return sum, nil
}

func runClusterBurst(e *env, traced bool) (*phase, error) {
	p := &phase{}
	s := series{}
	var submitMs, turnMs [][]float64
	reset := func() { s, submitMs, turnMs = series{}, nil, nil }
	err := episodes(e.seconds, !traced, reset, func(ep int) error {
		return burstEpisode(e, p, s, ep, traced, &submitMs, &turnMs)
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

// completion is a job_completed event as the subscriber saw it.
type completion struct {
	id int   // global job id
	at int64 // receipt time
}

// eventWatch tails a daemon's or a cluster front door's event stream: it
// checks the stream's ids and notes when each job_completed event arrives.
type eventWatch struct {
	tally sseTally
	seen  []completion
	wg    sync.WaitGroup
}

// watchEvents subscribes to base's event stream; shards is the number of
// components in its event ids (1 for a single daemon). The subscriber never
// reconnects on purpose (MaxAttempts 1): the stream ends when the drained
// daemon closes it, and an unplanned reconnect would show up as a resync or
// a gap.
func watchEvents(ctx context.Context, base string, shards int) *eventWatch {
	w := &eventWatch{}
	sub := server.NewClient(base)
	transport := &http.Transport{}
	sub.HTTP = &http.Client{Transport: transport}
	sub.MaxAttempts = 1
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer transport.CloseIdleConnections()
		var ev struct {
			Shard int `json:"shard"`
			Job   int `json:"job"`
		}
		_ = sub.StreamEvents(ctx, 0, func(f server.SSEEvent) error {
			at := now()
			if f.Type == "resync" {
				w.tally.resyncs++
				return nil
			}
			if err := w.tally.observe(f.RawID); err != nil {
				w.tally.malformed = append(w.tally.malformed, err.Error())
				return nil
			}
			if bytes.Contains(f.Data, []byte(`"job_completed"`)) && json.Unmarshal(f.Data, &ev) == nil {
				w.seen = append(w.seen, completion{ev.Job*shards + ev.Shard, at})
			}
			return nil
		})
	}()
	return w
}

// wait returns once the stream has ended; only then may tally and seen be
// read.
func (w *eventWatch) wait() error {
	return waitDone(func() error { w.wg.Wait(); return nil }, 10*time.Second)
}

// turnarounds pairs every observed completion with its job's submit time,
// in ms. Completions whose event was dropped have no sample.
func (w *eventWatch) turnarounds(submitted map[int]int64) []float64 {
	var out []float64
	for _, c := range w.seen {
		if ts, ok := submitted[c.id]; ok {
			out = append(out, float64(c.at-ts)/1e6)
		}
	}
	return out
}

// submitBurst submits specs back to back from one client, waiting only for
// each ack. It returns the acked ids, each acked job's submit time and the
// ack latencies in ms.
func submitBurst(ctx context.Context, p *phase, tr *tracer, client *server.Client,
	specs []server.JobRequest) (acked []int, submitted map[int]int64, lat []float64) {
	submitted = make(map[int]int64, len(specs))
	for _, spec := range specs {
		ts := now()
		ack, err := client.Submit(ctx, spec)
		te := now()
		tr.record("client.Submit", ts, te)
		p.attempted++
		if err != nil {
			p.failed++
			continue
		}
		acked = append(acked, ack.IDs[0])
		submitted[ack.IDs[0]] = ts
		lat = append(lat, float64(te-ts)/1e6)
	}
	return acked, submitted, lat
}

// burstEpisode boots a cluster, subscribes to its merged event stream,
// submits the burst back to back, drains, and checks the outputs.
func burstEpisode(e *env, p *phase, s series, ep int, traced bool, submitMs, turnMs *[][]float64) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := burstSpecs(e.seed)
	want, err := expectedWork(specs, burstL)
	if err != nil {
		return err
	}
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()

	heap0 := liveHeapMB()
	t0 := now()
	reg := obs.NewRegistry()
	st := &layerStats{}
	var policy alloc.Multi = alloc.DynamicEquiPartition{}
	if traced {
		policy = &tracedMulti{inner: policy, s: st}
	}
	c, err := cluster.New(cluster.Config{
		Addr:   "127.0.0.1:0",
		Shards: burstShards,
		Shard: server.Config{P: burstP, L: burstL, Clock: server.ClockWall, Tick: holdTick,
			QueueLimit: burstJobs, Seed: e.seed},
		Policy:  policy,
		Metrics: reg,
	})
	if err != nil {
		return err
	}
	if err := c.Start(ctx); err != nil {
		return err
	}
	base := "http://" + c.Addr()
	client := server.NewClient(base)
	client.HTTP = &http.Client{Transport: transport}

	watch := watchEvents(ctx, base, burstShards)
	if err := waitFor(ctx, 10*time.Second, func() (bool, error) {
		st, err := client.State(ctx)
		return err == nil && st.SSEClients == 1, nil
	}); err != nil {
		return fmt.Errorf("event subscriber never attached: %w", err)
	}
	s.put("setup_s", float64(now()-t0)/1e9)

	var rt *runtimeDelta
	if traced {
		rt = startRuntimeDelta()
	}
	start := now()
	acked, submitted, submitLat := submitBurst(ctx, p, e.tracer, client, specs)
	if err := client.Drain(ctx, true); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	wall := float64(now()-start) / 1e9
	s.put("peak_heap_mb", liveHeapMB()-heap0)

	state, err := client.State(ctx)
	if err != nil {
		return err
	}
	out := burstOutcome{Acked: acked, ExpectedWork: want,
		Published: state.LastEventID, Dropped: state.SSEDropped}
	if out.Jobs, err = client.Jobs(ctx); err != nil {
		return err
	}
	var shards []cluster.ShardDTO
	var samples map[string]float64
	if traced {
		if err := getJSON(ctx, client.HTTP, base+"/api/v1/shards", &shards); err != nil {
			return err
		}
		if samples, err = scrape(ctx, client.HTTP, base+"/metrics"); err != nil {
			return err
		}
	}
	if err := c.Wait(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if err := watch.wait(); err != nil {
		return fmt.Errorf("event subscriber: %w", err)
	}
	out.Stream = watch.tally
	for _, problem := range checkBurst(out) {
		p.fail("cluster-burst episode %d: %s", ep, problem)
	}
	*submitMs, *turnMs = append(*submitMs, submitLat), append(*turnMs, watch.turnarounds(submitted))

	jobQuanta := 0
	for _, j := range out.Jobs {
		jobQuanta += j.NumQuanta
	}
	s.put("job_quanta_per_s", float64(jobQuanta)/wall)
	s.put("jobs_per_s", float64(len(acked))/wall)
	if !traced {
		return nil
	}
	rt.add(s, float64(jobQuanta))
	quanta := sumFamily(samples, "sim_alloc_rounds_total")
	s.put("server.quanta", quanta)
	s.put("server.ns_per_quantum", wall*1e9/quanta)
	s.put("server.sse_events", float64(state.LastEventID))
	s.put("server.sse_evicted", sumFamily(samples, "abgd_sse_ring_evictions_total"))
	s.put("server.sse_dropped", float64(state.SSEDropped))
	s.put("server.http_ms.p50.jobs", findHist(reg, `abgd_http_request_seconds{route="/api/v1/jobs"}`).Quantile(0.5)*1e3)
	if q := sumFamily(samples, "sim_quanta_total"); q > 0 {
		s.put("alloc.deprived_ratio", sumFamily(samples, "sim_deprived_quanta_total")/q)
	}
	s.put("alloc.allot_calls", float64(st.allotCalls))
	s.put("alloc.ns_per_allot", float64(st.allotNs)/float64(st.allotCalls))
	s.put("cluster.rounds", float64(sumCounters(reg, "abgd_cluster_rebalances_total")))
	if st.allotCalls > 1 {
		s.put("cluster.ns_per_round", float64(st.lastAllot-st.firstAllot)/float64(st.allotCalls-1))
	}
	s.put("cluster.routing_imbalance", routingImbalance(shards))
	addClientLayers(s, client, p)
	return nil
}

// routingImbalance is the busiest shard's routed jobs over the even split:
// 1.0 is a perfect spread, the shard count means one shard took everything.
func routingImbalance(shards []cluster.ShardDTO) float64 {
	var total, max int64
	for _, sh := range shards {
		total += sh.Routed
		if sh.Routed > max {
			max = sh.Routed
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(len(shards)) / float64(total)
}
