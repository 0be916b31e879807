// Command perfbench is the repository benchmark: it runs one named workload
// against the scheduler's public Go APIs in-process, checks the workload's
// outputs, and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload sim-ample --seed 1 --seconds 10 --trace 0
//
// Workloads (BENCHMARK.json says why each was chosen; LAYERS.md maps the
// metrics to layers and workloads):
//
//	sim-ample       the offline engine: a batch of the paper's §7 fork-join
//	                jobs stepped to completion under ABG + DEQ on an ample P
//	daemon-durable  a journaled leader daemon with a hot-standby follower,
//	                fed a burst of submissions and drained while one SSE
//	                subscriber tails the leader
//	cluster-burst   a 4-shard cluster front door on a scarce P, fed a burst
//	                of submissions and drained while one SSE subscriber
//	                tails the merged stream
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the same
// untraced phase for half the time, then a traced phase for the other half
// that records spans around the benchmark's own calls into each layer and
// reads the counters the daemons export; it prints the per-layer metrics
// plus the tracing overhead, and writes the spans to
// .bench_build/perfbench-trace/.
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{name:{"value":v,"unit":u},...}}
//
// The lines before it record the machine and each metric's sample count.
// The exit status is 0 only when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"abg/internal/obs"
)

// phase is the outcome of measuring one workload for a while, traced or not.
type phase struct {
	attempted, failed int
	// problems lists every failed output check.
	problems []string
	metrics  []metric
	// throughput is the phase's median job-quantum rate, the basis of the
	// tracing-overhead figure.
	throughput float64
}

func (p *phase) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// metric is one reported number; n is the number of samples behind it
// (episodes for a median, observations for a percentile).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	// episodes holds the per-episode values behind a median, for the record.
	episodes []float64
}

func (p *phase) add(name string, value float64, unit string, n int) {
	p.metrics = append(p.metrics, metric{name: name, value: value, unit: unit, n: n})
}

// workloadFunc measures one workload for the given time. With traced set it
// returns per-layer metrics, otherwise end-to-end ones.
type workloadFunc func(env *env, traced bool) (*phase, error)

var workloads = map[string]workloadFunc{
	"sim-ample":      runSimAmple,
	"daemon-durable": runDaemonDurable,
	"cluster-burst":  runClusterBurst,
}

// env carries one invocation's arguments and its work directory.
type env struct {
	seed    uint64
	seconds time.Duration
	work    string  // per-run work directory, removed at exit
	tracer  *tracer // nil outside the traced phase
	// fingerprints collects the sim-ample per-job fingerprint of each phase,
	// so the traced run can be compared with the untraced one.
	fingerprints []uint64
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name: sim-ample, daemon-durable or cluster-burst")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds = flag.Int("seconds", 20, "how long the run measures, in seconds")
		trace   = flag.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	work := filepath.Join(".bench_build", "perfbench-run", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	// The daemons log their lifecycle at info; the benchmark's output is
	// its metrics.
	if err := obs.SetupDefaultLogger("warn"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// A traced run measures the untraced and the traced phase for half the
	// time each, so every run takes about as long.
	d := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		d /= 2
	}
	e := &env{seed: *seed, seconds: d, work: work}
	fmt.Println("machine:", machineJSON())

	plain, err := wl(e, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out := plain
	if *trace == 1 {
		e.tracer = newTracer()
		traced, err := wl(e, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		traced.attempted += plain.attempted
		traced.failed += plain.failed
		traced.problems = append(plain.problems, traced.problems...)
		traced.add("trace.overhead_ratio", plain.throughput/traced.throughput-1, "ratio", 1)
		if len(e.fingerprints) == 2 && e.fingerprints[0] != e.fingerprints[1] {
			traced.fail("sim-ample fingerprint changed under tracing: %016x untraced, %016x traced",
				e.fingerprints[0], e.fingerprints[1])
		}
		path := filepath.Join(".bench_build", "perfbench-trace", *name+".json")
		if err := e.tracer.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s (%d not kept)\n", e.tracer.kept(), path, e.tracer.dropped)
		out = traced
	}

	for _, m := range out.metrics {
		fmt.Printf("metric: %-36s %14.6g %-6s n=%d", m.name, m.value, m.unit, m.n)
		if len(m.episodes) > 1 {
			fmt.Printf(" episodes=%.4g", m.episodes)
		}
		fmt.Println()
	}
	for _, p := range out.problems {
		fmt.Println("check failed:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]value)}
	for _, m := range out.metrics {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct || res.Attempted < 1 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// minEpisodes is the fewest measured episodes a phase runs, however short
// --seconds is: enough for a median.
const minEpisodes = 3

// episodes runs fn for episode 0, 1, … until the phase has measured for at
// least d, and at least minEpisodes episodes. With warm set it first runs one
// warm-up episode and calls reset to discard the measurements it recorded:
// a process's first episode pays for growing the heap and warming caches,
// which no later episode does. Failed checks of the warm-up still count.
func episodes(d time.Duration, warm bool, reset func(), fn func(ep int) error) error {
	if warm {
		if err := fn(0); err != nil {
			return fmt.Errorf("warm-up episode: %w", err)
		}
		reset()
	}
	start := time.Now()
	for ep := 0; ep < minEpisodes || time.Since(start) < d; ep++ {
		if err := fn(ep); err != nil {
			return fmt.Errorf("episode %d: %w", ep, err)
		}
	}
	return nil
}
