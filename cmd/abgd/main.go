// Command abgd runs the ABG two-level scheduler as a long-lived service: an
// incremental simulation engine driven on a quantum clock, fed through an
// HTTP/JSON job-submission API.
//
//	abgd -addr :7133 -P 128 -L 1000 -clock wall -tick 100ms
//	abgd -addr :7133 -clock virtual            # fast-forward (load tests, CI)
//
// Submit jobs and watch the scheduler live:
//
//	curl -d '{"kind":"batch","count":8,"seed":42}' localhost:7133/api/v1/jobs
//	curl localhost:7133/api/v1/jobs/0          # request/allotment/history
//	curl localhost:7133/api/v1/state           # scheduler-wide snapshot
//	curl -N localhost:7133/api/v1/events       # SSE instrumentation stream
//	curl localhost:7133/metrics                # Prometheus text exposition
//	curl localhost:7133/api/v1/jobs/0/timeline # per-quantum controller loop
//	curl localhost:7133/healthz                # ok | degraded | failing
//	curl -X POST 'localhost:7133/api/v1/drain?wait=1'
//
// SIGINT/SIGTERM drain gracefully: admission closes (503), accepted jobs run
// to completion at fast-forward speed, then the listener shuts down. A
// second signal kills the process. Fault injection (-fault) arms the same
// deterministic perturbation layer as the batch tools, with the runtime
// invariant checker audited at exit.
//
// With -journal DIR the daemon keeps a write-ahead journal plus periodic
// engine snapshots there; after a crash (SIGKILL, power loss) the next boot
// with the same directory truncates any torn tail, restores the last
// snapshot, and deterministically replays the rest — same job ids, same
// results, same SSE event ids. See /api/v1/recovery and DESIGN.md.
//
// With -follow URL the daemon boots as a hot standby instead: it tails the
// leader's journal over /api/v1/journal, applies every record to its own
// engine, and serves reads (/state, job status, timelines, /metrics, SSE)
// that are byte-identical to the leader's at the same applied offset.
// Writes are redirected to the leader with a 307. Followers chain — a
// follower re-serves /api/v1/journal and the event stream, so relay tiers
// fan out reads without touching the leader. Promote a follower with
// POST /api/v1/promote; it resumes the run on exactly the journal prefix it
// applied.
//
//	abgd -addr :7134 -journal /var/lib/abgd-b -follow http://leader:7133
//
// With -group the failover is self-healing instead of operator-driven: every
// member runs an election supervisor that probes the others, and when the
// leader dies a quorum of survivors promotes the most-caught-up follower
// under a new fencing epoch — no manual /api/v1/promote, no split brain (a
// revived old leader is fenced and exits). Each member needs -advertise (the
// URL its peers reach it at) and -journal; start the first member plain and
// the rest with -follow pointing anywhere in the group (the supervisor
// retargets them at the real leader). Group-aware clients (abgload -group)
// follow the leadership wherever it moves.
//
//	abgd -addr :7134 -journal /var/lib/abgd-b -advertise http://b:7134 \
//	     -group http://a:7133,http://b:7134,http://c:7135 -follow http://a:7133
//
// With -cluster N the daemon runs N independent engine shards behind one
// front door instead of a single engine: submissions are routed to shards
// (consistent hashing, least-loaded tiebreak), and a cluster-level allocator
// re-partitions the machine's P processors across the shards at every
// quantum boundary by feeding the shards' aggregate desires through the same
// DEQ policy jobs are allotted with — the paper's two-level feedback applied
// hierarchically. The API is unchanged (global job ids, aggregated /state,
// merged SSE stream, shard-labelled /metrics); /api/v1/shards exposes the
// per-shard routing and allocation state. -journal gives each shard its own
// journal under shard-<k>/ subdirectories, so recovery stays exact per
// shard. -cluster is incompatible with -follow and -group.
//
//	abgd -addr :7133 -cluster 4 -P 128 -journal /var/lib/abgd
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"abg/internal/cli"
	"abg/internal/cluster"
	"abg/internal/failover"
	"abg/internal/obs"
	"abg/internal/server"
)

// options is abgd's checked command line.
type options struct {
	daemon    server.Config
	shards    int // > 0 runs a cluster of this many shards instead
	workers   int // -cluster-workers
	logSpec   string
	debugAddr string
	version   bool
}

// parseFlags parses abgd's command line and checks the flag combinations;
// flag errors and usage go to stderr.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("abgd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o     options
		d     = &o.daemon
		clock string
		group string
	)
	fs.StringVar(&d.Addr, "addr", ":7133", "HTTP listen address")
	fs.IntVar(&d.P, "P", 128, "machine size (processors)")
	fs.IntVar(&d.L, "L", 1000, "quantum length (steps)")
	fs.StringVar(&d.Scheduler, "scheduler", "abg", "scheduler: abg | agreedy")
	fs.Float64Var(&d.R, "r", 0.2, "ABG convergence rate in [0,1)")
	fs.Float64Var(&d.Rho, "rho", 2, "A-Greedy multiplicative factor (>1)")
	fs.Float64Var(&d.Delta, "delta", 0.8, "A-Greedy utilization threshold in (0,1)")
	fs.StringVar(&clock, "clock", "wall", "quantum clock: wall (one boundary per tick) | virtual (fast-forward)")
	fs.DurationVar(&d.Tick, "tick", 100*time.Millisecond, "wall-clock duration of one quantum (wall mode)")
	fs.IntVar(&d.QueueLimit, "queue", 4096, "admission queue bound (excess submissions get 429)")
	fs.Uint64Var(&d.Seed, "seed", 2008, "default workload seed for submissions without one")
	fs.StringVar(&d.FaultSpec, "fault", "", `fault-injection spec, e.g. "drop=0.3,cap=churn:0.5:16,seed=7" (see internal/fault)`)
	fs.StringVar(&d.JournalDir, "journal", "", "directory for the write-ahead journal; empty disables persistence")
	fs.IntVar(&d.SnapshotEvery, "snapshot-every", 64, "quanta between engine snapshots in the journal")
	fs.StringVar(&d.Fsync, "fsync", "always", "journal durability: always (fsync per record) | snapshot | never")
	fs.StringVar(&o.logSpec, "log", "info", `log levels: "info" or "info,server=debug,events=debug"`)
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve expvar + pprof on this address (e.g. :6060)")
	fs.IntVar(&d.TimelineRing, "timeline-ring", 0, "per-job quantum-timeline ring depth behind /api/v1/jobs/{id}/timeline (0 = default 256, negative disables)")
	fs.IntVar(&d.JournalLagMax, "healthz-lag-max", 0, "journal-lag ceiling before /healthz degrades (0 = default 1024)")
	fs.IntVar(&d.SnapshotAgeMax, "healthz-snapshot-age-max", 0, "snapshot-age ceiling in quanta before /healthz degrades (0 = 8× -snapshot-every)")
	fs.IntVar(&d.StepWorkers, "step-workers", 0, "goroutines stepping independent jobs per quantum (0/1 serial, -1 = one per CPU); results and journals are identical at every setting")
	fs.StringVar(&d.FollowURL, "follow", "", "run as a hot standby tailing this leader URL (requires -journal); serves reads, redirects writes")
	fs.StringVar(&group, "group", "", "comma-separated member URLs of a self-healing replication group (requires -journal and -advertise); quorum elections with epoch fencing replace manual promotion")
	fs.StringVar(&d.Advertise, "advertise", "", "base URL peers and clients reach this daemon at (required with -group)")
	fs.DurationVar(&d.ProbeEvery, "probe-every", 0, "failover supervisor probe interval (0 = 500ms default)")
	fs.DurationVar(&d.FailAfter, "fail-after", 0, "leader-silence window before the group elects a replacement (0 = 2s default)")
	fs.IntVar(&o.shards, "cluster", 0, "run N engine shards behind one front door (0 = single engine); incompatible with -follow and -group")
	fs.IntVar(&o.workers, "cluster-workers", 0, "goroutines stepping shards per cluster round (0 = one per CPU); results are identical at every setting")
	version := cli.VersionFlagSet(fs)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	o.version = *version
	d.Clock = server.ClockMode(clock)
	d.Group = failover.SplitGroup(group)
	if o.shards > 0 {
		if d.FollowURL != "" {
			return o, errors.New("-cluster and -follow are mutually exclusive: a cluster's shards replicate per shard, not as one journal")
		}
		if len(d.Group) > 0 {
			return o, errors.New("-cluster and -group are mutually exclusive: group elections run per daemon, not per shard")
		}
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "abgd: %v\n", err)
		os.Exit(2)
	}
	cli.ExitIfVersion("abgd", o.version)

	if err := obs.SetupDefaultLogger(o.logSpec); err != nil {
		fatal(err)
	}
	if o.debugAddr != "" {
		// The server feeds engine metrics into its registry (obs.Default
		// below), so /debug/vars and /metrics read the same numbers.
		dbg, err := obs.StartDebugServer(o.debugAddr, nil)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "[debug server on http://%s]\n", dbg.Addr())
	}

	if o.shards > 0 {
		shard := o.daemon
		addr := shard.Addr
		shard.Addr = ""
		cl, err := cluster.New(cluster.Config{
			Addr: addr, Shards: o.shards, Workers: o.workers,
			Metrics: obs.Default, Shard: shard,
		})
		if err != nil {
			fatal(err)
		}
		ctx, stop := cli.SignalContext()
		defer stop()
		if err := cl.Start(ctx); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "abgd listening on http://%s\n", cl.Addr())
		if err := cl.Wait(); err != nil {
			fatal(err)
		}
		cli.Interrupted(ctx, os.Stderr, "abgd")
		return
	}

	cfg := o.daemon
	cfg.Metrics = obs.Default
	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}

	ctx, stop := cli.SignalContext()
	defer stop()
	if err := srv.Start(ctx); err != nil {
		fatal(err)
	}
	// The tests (and scripts) parse this line to find a :0-assigned port.
	fmt.Fprintf(os.Stderr, "abgd listening on http://%s\n", srv.Addr())

	if err := srv.Wait(); err != nil {
		fatal(err)
	}
	cli.Interrupted(ctx, os.Stderr, "abgd")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "abgd: %v\n", err)
	os.Exit(1)
}
