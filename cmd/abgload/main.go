// Command abgload is a closed-loop load generator for abgd: concurrent
// clients submit jobs over the HTTP API, each waiting for its job to
// complete before claiming the next, and the run reports submission
// throughput, HTTP response-time percentiles, scheduler response times, and
// request-loop convergence.
//
//	abgload -selftest                       # boot ABG and A-Greedy daemons
//	                                        # in-process and compare them
//	abgload -addr localhost:7133 -jobs 500  # hammer an external daemon
//	abgload -crash -abgd ./abgd -journal /tmp/wal   # crash-recovery soak
//	abgload -failover -abgd ./abgd          # self-healing failover chaos soak
//
// The selftest is also the service smoke: it fails (exit 1) unless every
// submission is acknowledged, every job runs to completion with a coherent
// status, no response is corrupted, and the drain completes cleanly.
//
// All HTTP traffic goes through the hardened server.Client: per-request
// deadlines, exponential backoff with jitter on 429/5xx/connection failures
// (Retry-After respected as a floor), and idempotency-keyed submissions so
// a retried submit can never double-admit — which is what lets -crash
// SIGKILL the daemon mid-run and keep hammering it through restarts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abg/internal/cli"
	"abg/internal/cluster"
	"abg/internal/failover"
	"abg/internal/obs"
	"abg/internal/server"
	"abg/internal/stats"
	"abg/internal/table"
)

// options is abgload's checked command line.
type options struct {
	soak                               crashConfig // binary, machine and workload; -crashes cycles
	addr                               string
	selftest, crash, failover, jsonOut bool
	shards                             int // -cluster
	kills                              int
	timeout                            time.Duration
	logSpec                            string
	version                            bool
}

// parseFlags parses abgload's command line and checks the flag
// combinations; flag errors and usage go to stderr.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("abgload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o     options
		run   = &o.soak.run
		group string
	)
	fs.StringVar(&o.addr, "addr", "", "address of a running abgd (host:port); empty with -selftest boots daemons in-process")
	fs.BoolVar(&o.selftest, "selftest", false, "boot ABG and A-Greedy daemons in-process (virtual clock) and compare")
	fs.IntVar(&run.jobs, "jobs", 1000, "total jobs to submit")
	fs.IntVar(&run.clients, "clients", 16, "concurrent closed-loop clients")
	fs.StringVar(&run.spec.Kind, "kind", "batch", "job kind: fullPar | serial | batch | adversarial")
	fs.IntVar(&run.spec.Width, "width", 16, "width for fullPar/adversarial jobs")
	fs.IntVar(&run.spec.Quanta, "quanta", 4, "length in quanta for non-batch jobs")
	fs.IntVar(&run.spec.CL, "cl", 20, "transition factor for batch jobs")
	fs.IntVar(&run.spec.Shrink, "shrink", 8, "phase-length shrink for batch jobs")
	fs.IntVar(&o.soak.p, "P", 64, "machine size for in-process daemons")
	fs.IntVar(&o.soak.l, "L", 200, "quantum length for in-process daemons")
	fs.Uint64Var(&run.seed, "seed", 2008, "base workload seed (job i draws from seed+i)")
	fs.DurationVar(&o.timeout, "timeout", 5*time.Minute, "overall deadline")
	fs.StringVar(&o.logSpec, "log", "", `log levels for in-process daemons (default warn)`)
	fs.BoolVar(&o.crash, "crash", false, "crash-recovery soak: spawn abgd, SIGKILL it at random quanta, restart from journal, verify recovery equals an uninterrupted reference run")
	fs.BoolVar(&o.failover, "failover", false, "failover chaos soak: spawn a 3-member self-healing group, repeatedly SIGKILL whoever leads, and verify the group elects replacements on its own and the final run equals its reference replay")
	fs.IntVar(&o.kills, "kills", 3, "leader SIGKILLs in -failover mode")
	fs.StringVar(&group, "group", "", "comma-separated replication-group member URLs; the client discovers the leader among them and follows it across failovers")
	fs.StringVar(&o.soak.abgd, "abgd", "abgd", "abgd binary to spawn in -crash mode")
	fs.StringVar(&o.soak.journal, "journal", "", "journal directory for -crash mode (default: a fresh temp dir)")
	fs.IntVar(&o.soak.crashes, "crashes", 3, "SIGKILL/restart cycles in -crash mode")
	fs.StringVar(&o.soak.fault, "fault", "", "fault-injection spec passed to the spawned daemon (-crash mode)")
	fs.IntVar(&o.shards, "cluster", 0, "boot an in-process N-shard cluster front end (virtual clock) and drive it")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the run summary as JSON on stdout instead of tables (not with -crash)")
	version := cli.VersionFlagSet(fs)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.version = *version
	run.group = failover.SplitGroup(group)
	modes := 0
	for _, on := range []bool{o.selftest, o.crash, o.failover, o.shards > 0} {
		if on {
			modes++
		}
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.version:
	case modes > 1:
		return o, errors.New("-selftest, -cluster, -crash and -failover are mutually exclusive")
	case modes == 0 && o.addr == "":
		return o, errors.New("need -addr of a running abgd, -selftest, -cluster, -crash, or -failover")
	case run.jobs < 1 || run.clients < 1:
		return o, errors.New("need -jobs >= 1 and -clients >= 1")
	case o.jsonOut && o.crash:
		return o, errors.New("-json is not supported in -crash mode")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fatal(err)
	}
	cli.ExitIfVersion("abgload", o.version)
	if err := obs.SetupDefaultLogger(o.logSpec); err != nil {
		fatal(err)
	}

	ctx, stop := cli.SignalContext()
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, o.timeout)
	defer cancel()

	run, p, l := o.soak.run, o.soak.p, o.soak.l
	failed := false
	var reports []*report
	collect := func(what string, rep *report, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "abgload: %s%v\n", what, err)
			failed = true
		} else if rep != nil {
			reports = append(reports, rep)
		}
	}
	switch {
	case o.crash:
		collect("crash soak: ", nil, runCrashSoak(ctx, os.Stdout, o.soak))
	case o.failover:
		cfg := o.soak
		cfg.crashes = o.kills
		rep, err := runFailoverSoak(ctx, os.Stderr, cfg)
		collect("failover soak: ", rep, err)
	case o.selftest:
		for _, schedName := range []string{"abg", "agreedy"} {
			rep, err := runAgainstInProcess(ctx, schedName, p, l, run)
			collect(schedName+": ", rep, err)
		}
	case o.shards > 0:
		rep, err := runAgainstCluster(ctx, o.shards, p, l, run)
		collect("cluster: ", rep, err)
	default:
		rep, err := drive(ctx, o.addr, "abgd@"+o.addr, run, false)
		collect("", rep, err)
	}
	if o.jsonOut {
		collect("", nil, writeJSONSummary(os.Stdout, reports))
	} else {
		for _, rep := range reports {
			rep.render(os.Stdout)
		}
	}
	if cli.Interrupted(ctx, os.Stderr, "abgload") || failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "abgload: %v\n", err)
	os.Exit(2)
}

// runConfig is one load run: the job template and the closed-loop shape.
type runConfig struct {
	jobs    int
	clients int
	spec    server.JobRequest
	seed    uint64
	group   []string // replication-group member URLs for client failover
}

// runAgainstInProcess boots a virtual-clock daemon with the given scheduler
// on a loopback port, drives the load against it, and drains it.
func runAgainstInProcess(ctx context.Context, schedName string, p, l int, run runConfig) (*report, error) {
	srv, err := server.New(server.Config{
		Addr: "127.0.0.1:0", P: p, L: l,
		Scheduler: schedName, Clock: server.ClockVirtual,
		QueueLimit: run.jobs + run.clients,
	})
	if err != nil {
		return nil, err
	}
	srvCtx, srvCancel := context.WithCancel(context.Background())
	defer srvCancel()
	if err := srv.Start(srvCtx); err != nil {
		return nil, err
	}
	rep, driveErr := drive(ctx, "http://"+srv.Addr(), schedName, run, true)
	if err := srv.Wait(); err != nil {
		return nil, fmt.Errorf("daemon did not drain cleanly: %w", err)
	}
	return rep, driveErr
}

// runAgainstCluster boots a virtual-clock N-shard cluster front end on a
// loopback port, drives the load through it, and drains it. The report picks
// up the per-shard routing counters from /api/v1/shards.
func runAgainstCluster(ctx context.Context, shards, p, l int, run runConfig) (*report, error) {
	c, err := cluster.New(cluster.Config{
		Addr:   "127.0.0.1:0",
		Shards: shards,
		Shard: server.Config{
			P: p, L: l,
			Scheduler: "abg", Clock: server.ClockVirtual,
			QueueLimit: run.jobs + run.clients,
		},
	})
	if err != nil {
		return nil, err
	}
	clCtx, clCancel := context.WithCancel(context.Background())
	defer clCancel()
	if err := c.Start(clCtx); err != nil {
		return nil, err
	}
	rep, driveErr := drive(ctx, "http://"+c.Addr(), fmt.Sprintf("cluster-%d", shards), run, true)
	if err := c.Wait(); err != nil {
		return nil, fmt.Errorf("cluster did not drain cleanly: %w", err)
	}
	if driveErr == nil && rep.state.Completed != run.jobs {
		return nil, fmt.Errorf("cluster completed %d of %d jobs", rep.state.Completed, run.jobs)
	}
	return rep, driveErr
}

// report aggregates one load run.
type report struct {
	label         string
	state         server.StateDTO
	wall          time.Duration
	submitted     int64
	retried429    int64
	retriedXport  int64
	deadlines     int64
	submitMS      []float64 // POST round-trip (including retries), ms
	statusMS      []float64 // GET round-trip, ms
	responses     []float64 // scheduler response times, steps
	deprivedFrac  []float64 // per-job deprived-quanta fraction
	polls         int64
	readRetargets int64     // reads failed over to a follower
	failovers     int64     // leader re-discoveries that changed the target
	fencedWrites  int64     // write acks refused as fenced / stale-epoch
	promotionsMs  []float64 // kill-to-new-leader latencies (-failover only)

	// Per-shard routing counters from /api/v1/shards; nil when the target
	// is a single daemon (the endpoint 404s there).
	shards []cluster.ShardDTO
}

// drive runs the closed loop against base. drain selects whether the run
// ends with a drain request through the API (in-process targets); external
// daemons are left running so abgload can be re-run against them.
func drive(ctx context.Context, base, label string, run runConfig, drain bool) (*report, error) {
	client := server.NewClient(base)
	client.Group = run.group
	rep := &report{label: label}
	var (
		next    atomic.Int64
		mu      sync.Mutex // guards the rep slices
		wg      sync.WaitGroup
		firstMu sync.Mutex
		firstEr error
	)
	fail := func(err error) {
		firstMu.Lock()
		if firstEr == nil {
			firstEr = err
		}
		firstMu.Unlock()
	}
	start := time.Now()
	for c := 0; c < run.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if int(i) >= run.jobs || ctx.Err() != nil {
					return
				}
				if err := runOne(ctx, client, run, int(i), rep, &mu); err != nil {
					fail(fmt.Errorf("job %d: %w", i, err))
					return
				}
			}
		}()
	}
	wg.Wait()
	rep.wall = time.Since(start)
	rep.retried429 = client.Retried429.Load()
	rep.retriedXport = client.RetriedTransport.Load()
	rep.deadlines = client.DeadlineExceeded.Load()
	rep.readRetargets = client.ReadRetargets.Load()
	rep.failovers = client.Failovers.Load()
	rep.fencedWrites = client.FencedWrites.Load()
	if firstEr != nil {
		return nil, firstEr
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if got := rep.submitted; got != int64(run.jobs) {
		return nil, fmt.Errorf("submitted %d of %d jobs", got, run.jobs)
	}

	// A cluster front end exposes its per-shard routing state; capture it
	// before the drain tears the listener down. Single daemons 404 here.
	rep.shards = fetchShards(ctx, base)

	// Drain the in-process daemon through its own API and snapshot the end
	// state: every accepted job must be completed.
	if drain {
		if err := client.Drain(ctx, true); err != nil {
			return nil, fmt.Errorf("drain: %w", err)
		}
	}
	var err error
	if rep.state, err = client.State(ctx); err != nil {
		return nil, err
	}
	if drain && rep.state.Completed != run.jobs {
		return nil, fmt.Errorf("daemon completed %d of %d jobs", rep.state.Completed, run.jobs)
	}
	return rep, nil
}

// fetchShards reads /api/v1/shards, returning nil when the target is not a
// cluster front end (or the read fails — the shard table is best-effort
// telemetry, never a reason to fail a load run).
func fetchShards(ctx context.Context, base string) []cluster.ShardDTO {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/shards", nil)
	if err != nil {
		return nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var shards []cluster.ShardDTO
	if err := json.NewDecoder(resp.Body).Decode(&shards); err != nil {
		return nil
	}
	return shards
}

// runOne is one closed-loop iteration: submit job i, wait for completion,
// validate the final status. The client retries 429s and transport failures
// internally, with a deterministic per-job idempotency key so a retried
// submit never double-admits.
func runOne(ctx context.Context, client *server.Client, run runConfig, i int, rep *report, mu *sync.Mutex) error {
	spec := run.spec
	spec.Name = fmt.Sprintf("load-%d", i)
	spec.Seed = run.seed + uint64(i)
	spec.Key = fmt.Sprintf("load-%d-%d", run.seed, i)

	t0 := time.Now()
	ack, err := client.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	ms := float64(time.Since(t0).Microseconds()) / 1000
	id := ack.IDs[0]
	atomic.AddInt64(&rep.submitted, 1)
	mu.Lock()
	rep.submitMS = append(rep.submitMS, ms)
	mu.Unlock()

	// Closed loop: poll this job until the scheduler finishes it.
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		st, err := client.JobStatus(ctx, id)
		if err != nil {
			return err
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000
		atomic.AddInt64(&rep.polls, 1)
		mu.Lock()
		rep.statusMS = append(rep.statusMS, ms)
		mu.Unlock()
		if st.ID != id {
			return fmt.Errorf("corrupt status: asked for %d, got %d", id, st.ID)
		}
		if st.State == "done" {
			if st.Work <= 0 || st.Response <= 0 || st.NumQuanta < 0 {
				return fmt.Errorf("corrupt final status %+v", st)
			}
			mu.Lock()
			rep.responses = append(rep.responses, float64(st.Response))
			if st.NumQuanta > 0 {
				rep.deprivedFrac = append(rep.deprivedFrac, float64(st.DeprivedQuanta)/float64(st.NumQuanta))
			}
			mu.Unlock()
			return nil
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// LoadSummary is the machine-readable form of one run, emitted by -json so
// scripts and dashboards can consume abgload output without scraping tables.
type LoadSummary struct {
	Label     string `json:"label"`
	Scheduler string `json:"scheduler"`

	JobsCompleted int64   `json:"jobsCompleted"`
	WallMs        float64 `json:"wallMs"`
	JobsPerSec    float64 `json:"jobsPerSec"`

	Retried429       int64 `json:"retried429"`
	RetriedTransport int64 `json:"retriedTransport"`
	DeadlineExceeded int64 `json:"deadlineExceeded"`
	StatusPolls      int64 `json:"statusPolls"`

	// Failover counters: reads retargeted to another group member, leader
	// re-discoveries that moved the write target, write acks refused as
	// fenced or stale-epoch, and (in -failover mode) the distribution of
	// kill-to-new-leader latencies across the soak's elections.
	ReadRetargets int64     `json:"readRetargets"`
	FailoverCount int64     `json:"failoverCount"`
	FencedWrites  int64     `json:"fencedWrites"`
	PromotionMs   Quantiles `json:"promotionMs"`

	SubmitMs      Quantiles `json:"submitMs"`
	StatusMs      Quantiles `json:"statusMs"`
	ResponseSteps Quantiles `json:"responseSteps"`

	DeprivedFraction float64 `json:"deprivedFraction"`
	MakespanSteps    int64   `json:"makespanSteps"`
	TotalWaste       int64   `json:"totalWaste"`
	SSEDropped       int64   `json:"sseDropped"`

	// Cluster targets only: jobs admitted per shard (index = shard id) and
	// the routing imbalance — max per-shard admits over the perfectly even
	// split (1.0 = perfectly balanced).
	ShardAdmits      []int64 `json:"shardAdmits,omitempty"`
	RoutingImbalance float64 `json:"routingImbalance,omitempty"`
}

// Quantiles summarises one latency-style sample set via obs.Histogram's
// bucket-interpolated estimator — the same estimator behind the daemon's
// /metrics histograms and /api/v1/state percentiles, so the client-side and
// server-side numbers are comparable.
type Quantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// quantiles folds samples into a histogram with the given bucket bounds and
// reads the summary back out.
func quantiles(samples []float64, bounds []float64) Quantiles {
	if len(samples) == 0 {
		return Quantiles{}
	}
	h := obs.NewRegistry().Histogram("q", bounds)
	for _, v := range samples {
		h.Observe(v)
	}
	return Quantiles{
		Count: h.Count(),
		P50:   h.Quantile(0.5), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		Max: h.Max(),
	}
}

// summary converts the report to its JSON form.
func (r *report) summary() LoadSummary {
	// Sub-10µs to ~80s for HTTP round trips; 100 steps to ~50M for
	// scheduler response times.
	msBuckets := obs.ExponentialBuckets(0.01, 2, 24)
	stepBuckets := obs.ExponentialBuckets(100, 2, 20)
	depr := 0.0
	for _, f := range r.deprivedFrac {
		depr += f
	}
	if n := len(r.deprivedFrac); n > 0 {
		depr /= float64(n)
	}
	return LoadSummary{
		Label: r.label, Scheduler: r.state.Scheduler,
		JobsCompleted: int64(len(r.responses)),
		WallMs:        float64(r.wall.Microseconds()) / 1000,
		JobsPerSec:    float64(r.submitted) / r.wall.Seconds(),

		Retried429: r.retried429, RetriedTransport: r.retriedXport,
		DeadlineExceeded: r.deadlines, StatusPolls: r.polls,
		ReadRetargets: r.readRetargets,
		FailoverCount: r.failovers, FencedWrites: r.fencedWrites,
		PromotionMs: quantiles(r.promotionsMs, msBuckets),

		SubmitMs:      quantiles(r.submitMS, msBuckets),
		StatusMs:      quantiles(r.statusMS, msBuckets),
		ResponseSteps: quantiles(r.responses, stepBuckets),

		DeprivedFraction: depr,
		MakespanSteps:    r.state.Makespan,
		TotalWaste:       r.state.TotalWaste,
		SSEDropped:       r.state.SSEDropped,

		ShardAdmits:      shardAdmits(r.shards),
		RoutingImbalance: routingImbalance(r.shards),
	}
}

// shardAdmits flattens the shard table to per-shard admit counts.
func shardAdmits(shards []cluster.ShardDTO) []int64 {
	if len(shards) == 0 {
		return nil
	}
	out := make([]int64, len(shards))
	for _, sh := range shards {
		if sh.Shard >= 0 && sh.Shard < len(out) {
			out[sh.Shard] = sh.Routed
		}
	}
	return out
}

// routingImbalance is max per-shard admits over the even split: 1.0 means
// the router spread the jobs perfectly, N means one shard took everything.
func routingImbalance(shards []cluster.ShardDTO) float64 {
	if len(shards) < 2 {
		return 0
	}
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
	even := float64(total) / float64(len(shards))
	return float64(max) / even
}

// writeJSONSummary emits every run's summary under a stable schema tag.
func writeJSONSummary(w io.Writer, reports []*report) error {
	doc := struct {
		Schema string        `json:"schema"`
		Runs   []LoadSummary `json:"runs"`
	}{Schema: "abg-load/v1"}
	for _, r := range reports {
		doc.Runs = append(doc.Runs, r.summary())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// render prints the run's report.
func (r *report) render(w io.Writer) {
	fmt.Fprintf(w, "=== %s (scheduler %s) ===\n", r.label, r.state.Scheduler)
	sub := stats.Summarize(r.submitMS)
	sta := stats.Summarize(r.statusMS)
	resp := stats.Summarize(r.responses)
	depr := stats.Summarize(r.deprivedFrac)

	tb := table.New("metric", "value")
	tb.AddRowf("jobs completed", len(r.responses))
	tb.AddRowf("wall time", r.wall.Round(time.Millisecond))
	tb.AddRowf("throughput (jobs/s)", float64(r.submitted)/r.wall.Seconds())
	tb.AddRowf("429 retries", r.retried429)
	tb.AddRowf("transport retries", r.retriedXport)
	tb.AddRowf("deadline exceeded", r.deadlines)
	tb.AddRowf("read retargets", r.readRetargets)
	if r.failovers > 0 || r.fencedWrites > 0 {
		tb.AddRowf("leader failovers", r.failovers)
		tb.AddRowf("fenced writes refused", r.fencedWrites)
	}
	if len(r.promotionsMs) > 0 {
		pq := quantiles(r.promotionsMs, obs.ExponentialBuckets(0.01, 2, 24))
		tb.AddRowf("promotion latency ms p50/p99/max",
			fmt.Sprintf("%.1f / %.1f / %.1f", pq.P50, pq.P99, pq.Max))
	}
	tb.AddRowf("status polls", r.polls)
	tb.AddRowf("submit ms p50/p90/max", fmt.Sprintf("%.2f / %.2f / %.2f", sub.Median, sub.P90, sub.Max))
	tb.AddRowf("status ms p50/p90/max", fmt.Sprintf("%.2f / %.2f / %.2f", sta.Median, sta.P90, sta.Max))
	tb.AddRowf("response steps mean/p90", fmt.Sprintf("%.0f / %.0f", resp.Mean, resp.P90))
	tb.AddRowf("deprived-quanta fraction", fmt.Sprintf("%.3f", depr.Mean))
	tb.AddRowf("makespan (steps)", r.state.Makespan)
	tb.AddRowf("total waste", r.state.TotalWaste)
	tb.AddRowf("sse dropped", r.state.SSEDropped)
	if len(r.shards) > 0 {
		admits := make([]string, len(r.shards))
		for i, n := range shardAdmits(r.shards) {
			admits[i] = fmt.Sprintf("%d", n)
		}
		tb.AddRowf("shard admits", strings.Join(admits, " / "))
		tb.AddRowf("routing imbalance", fmt.Sprintf("%.2f", routingImbalance(r.shards)))
	}
	tb.Render(w)
	fmt.Fprintln(w)
}
