package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"abg/internal/alloc"
	"abg/internal/core"
	"abg/internal/job"
	"abg/internal/server"
	"abg/internal/sim"
	"abg/internal/workload"
	"abg/internal/xrand"
)

// smallSimSet is a sim-ample job set small enough for a unit test.
func smallSimSet(seed uint64, n int) []*job.Profile {
	rng := xrand.New(seed)
	profs := make([]*job.Profile, n)
	for i := range profs {
		cl := spreadCL(i, simCLMin, simCLMax)
		profs[i] = workload.GenJob(rng, workload.ScaledJobParams(cl, simL, 8))
	}
	return profs
}

// simulate runs profs to completion as sim-ample does, wrapping the layers
// when st is non-nil.
func simulate(t *testing.T, profs []*job.Profile, st *layerStats) simOutcome {
	t.Helper()
	p := simMachine(profs)
	var allocator alloc.Multi = alloc.DynamicEquiPartition{}
	if st != nil {
		allocator = &tracedMulti{inner: alloc.NewAllotter(alloc.DynamicEquiPartition{}), s: st}
	}
	eng, err := sim.NewEngine(sim.MultiConfig{P: p, L: simL, Allocator: allocator})
	if err != nil {
		t.Fatal(err)
	}
	abg := core.NewABG(simR)
	for _, prof := range profs {
		var inst job.Instance = job.NewRun(prof)
		pol := abg.NewPolicy()
		if st != nil {
			inst = &tracedInstance{Instance: inst, s: st}
			pol = &tracedPolicy{Policy: pol, s: st}
		}
		if _, err := eng.Submit(sim.JobSpec{Inst: inst, Policy: pol, Sched: abg.TaskScheduler()}); err != nil {
			t.Fatal(err)
		}
	}
	done := make([]bool, len(profs))
	for !eng.Done() {
		info, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range info.Completed {
			done[id] = true
		}
	}
	return simOutcomeOf(p, eng.Result(), done)
}

func wantProblem(t *testing.T, problems []string, substr string) {
	t.Helper()
	for _, p := range problems {
		if strings.Contains(p, substr) {
			return
		}
	}
	t.Errorf("want a problem mentioning %q, got %q", substr, problems)
}

func TestCheckSim(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		profs := smallSimSet(seed, 40)
		out := simulate(t, profs, nil)
		if problems := checkSim(profs, out); len(problems) > 0 {
			t.Fatalf("seed %d: clean run rejected: %q", seed, problems)
		}

		dropped := out
		dropped.Jobs = out.Jobs[1:]
		wantProblem(t, checkSim(profs, dropped), "job outcomes for")

		corrupt := func(edit func(j *simJob)) simOutcome {
			c := out
			c.Jobs = append([]simJob(nil), out.Jobs...)
			edit(&c.Jobs[3])
			return c
		}
		wantProblem(t, checkSim(profs, corrupt(func(j *simJob) { j.Done = false })), "never completed")
		wantProblem(t, checkSim(profs, corrupt(func(j *simJob) { j.Work-- })), "did work")
		wantProblem(t, checkSim(profs, corrupt(func(j *simJob) { j.Response = 1 })), "below its critical path")
		short := out
		short.Makespan = 1
		wantProblem(t, checkSim(profs, short), "below the lower bound")
	}
}

// TestTracingKeepsFingerprint pins that the layer wrappers only observe:
// the traced schedule is the untraced one, job for job.
func TestTracingKeepsFingerprint(t *testing.T) {
	profs := smallSimSet(3, 40)
	plain := simulate(t, profs, nil)
	st := &layerStats{}
	traced := simulate(t, profs, st)
	if plain.fingerprint() != traced.fingerprint() {
		t.Fatalf("tracing changed the schedule: %016x vs %016x", plain.fingerprint(), traced.fingerprint())
	}
	if st.kernelCalls == 0 || st.feedbackCalls == 0 || st.allotCalls == 0 {
		t.Fatalf("wrappers saw no calls: %+v", st)
	}
	var tasks int64
	for _, p := range profs {
		tasks += p.Work()
	}
	if st.kernelTasks != tasks {
		t.Fatalf("kernel counted %d tasks, the job set has %d", st.kernelTasks, tasks)
	}

	perturbed := traced
	perturbed.Jobs = append([]simJob(nil), traced.Jobs...)
	perturbed.Jobs[0].Waste++
	if perturbed.fingerprint() == plain.fingerprint() {
		t.Fatal("fingerprint blind to a perturbed job")
	}
}

func TestCheckDurable(t *testing.T) {
	jobs := []server.JobStatusDTO{
		{ID: 0, State: "done", Work: 10, Completion: 3000, NumQuanta: 3},
		{ID: 1, State: "done", Work: 7, Completion: 4000, NumQuanta: 4},
	}
	clone := func() []server.JobStatusDTO { return append([]server.JobStatusDTO(nil), jobs...) }
	good := func() durableOutcome {
		return durableOutcome{Acked: []int{0, 1}, Leader: clone(), Reference: clone(), Follower: clone(),
			LeaderJournal: []byte("journal"), FollowerJournal: []byte("journal")}
	}
	withHistory := good()
	withHistory.Leader[0].History = []server.HistoryEntry{{}}
	if problems := checkDurable(withHistory); len(problems) > 0 {
		t.Fatalf("clean episode rejected: %q", problems)
	}

	o := good()
	o.Leader = o.Leader[:1]
	wantProblem(t, checkDurable(o), "acked job 1 unknown")
	o = good()
	o.Leader[1].State = "running"
	wantProblem(t, checkDurable(o), "not done")
	o = good()
	o.Reference[0].Completion++
	wantProblem(t, checkDurable(o), "reference replay job 0 differs")
	o = good()
	o.Follower = o.Follower[:1]
	wantProblem(t, checkDurable(o), "follower has 1 jobs")
	o = good()
	o.FollowerJournal = []byte("journa")
	wantProblem(t, checkDurable(o), "follower journal")
	o = good()
	o.Published = 3
	wantProblem(t, checkDurable(o), "!= 3 published")
}

func TestCheckBurst(t *testing.T) {
	var stream sseTally
	for _, id := range []string{"1,0", "1,1", "2,1", "3,1"} {
		if err := stream.observe(id); err != nil {
			t.Fatal(err)
		}
	}
	good := func() burstOutcome {
		return burstOutcome{
			Acked:        []int{0, 1},
			Jobs:         []server.JobStatusDTO{{ID: 0, State: "done", Work: 5}, {ID: 1, State: "done", Work: 6}},
			ExpectedWork: 11, Stream: stream, Published: 4,
		}
	}
	if problems := checkBurst(good()); len(problems) > 0 {
		t.Fatalf("clean episode rejected: %q", problems)
	}

	o := good()
	o.Jobs = o.Jobs[:1]
	wantProblem(t, checkBurst(o), "acked job 1 did not complete")
	o = good()
	o.Acked = o.Acked[:1]
	wantProblem(t, checkBurst(o), "completed job 1 was never acked")
	o = good()
	o.ExpectedWork = 12
	wantProblem(t, checkBurst(o), "jobs did 11 work")
	o = good()
	o.Published = 5
	wantProblem(t, checkBurst(o), "!= 5 published")

	// A gap is fine only when the front door reported the drops.
	var gappy sseTally
	for _, id := range []string{"1,0", "3,1"} {
		if err := gappy.observe(id); err != nil {
			t.Fatal(err)
		}
	}
	o = good()
	o.Stream, o.Published = gappy, 4
	wantProblem(t, checkBurst(o), "events missing between frames")
	o.Dropped = 2
	if problems := checkBurst(o); len(problems) > 0 {
		t.Fatalf("gap covered by reported drops rejected: %q", problems)
	}

	var backwards sseTally
	for _, id := range []string{"2,0", "1,1"} {
		if err := backwards.observe(id); err != nil {
			t.Fatal(err)
		}
	}
	o = good()
	o.Stream = backwards
	wantProblem(t, checkBurst(o), "did not move their shard forward")

	var malformed sseTally
	if err := malformed.observe("1,x"); err == nil {
		t.Fatal("non-numeric id accepted")
	}
	o = good()
	o.Stream.malformed = []string{"event id \"1,x\": bad"}
	wantProblem(t, checkBurst(o), "event id")
}

func TestSSETallyRejectsMalformedIDs(t *testing.T) {
	var tally sseTally
	if err := tally.observe("1,0"); err != nil {
		t.Fatal(err)
	}
	if err := tally.observe("1,0,0"); err == nil {
		t.Error("id with a different shard count accepted")
	}
	if err := tally.observe("x,1"); err == nil {
		t.Error("non-numeric id accepted")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// TestMetricsMatchBenchmarkJSON pins the reported metric names and units to
// the ones BENCHMARK.json declares, in both modes.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(mode string, p *phase, want []struct{ Name, Unit string }) {
		t.Helper()
		got := make(map[string]string)
		for _, m := range p.metrics {
			got[m.name] = m.unit
		}
		if len(got) != len(want) {
			t.Errorf("%s: reports %d metrics, BENCHMARK.json declares %d", mode, len(got), len(want))
		}
		for _, w := range want {
			if u, ok := got[w.Name]; !ok || u != w.Unit {
				t.Errorf("%s: %s reported with unit %q (present %v), declared %q", mode, w.Name, u, ok, w.Unit)
			}
		}
	}
	e2e := &phase{}
	reportEndToEnd(e2e, series{}, nil)
	same("end_to_end", e2e, decl.EndToEnd)
	layers := &phase{}
	reportLayers(layers, series{}, nil, nil)
	layers.add("trace.overhead_ratio", 0, "ratio", 1) // added by run, which sees both phases
	same("per_layer", layers, decl.PerLayer)
}
