package sim

import (
	"testing"

	"abg/internal/alloc"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/metrics"
	"abg/internal/sched"
	"abg/internal/workload"
	"abg/internal/xrand"
)

func abgSpec(name string, release int64, p *job.Profile) JobSpec {
	return JobSpec{
		Name:    name,
		Release: release,
		Inst:    job.NewRun(p),
		Policy:  feedback.NewAControl(0.2),
		Sched:   sched.BGreedy(),
	}
}

func TestRunMultiValidation(t *testing.T) {
	p := workload.ConstantJob(2, 1, 10)
	deq := alloc.DynamicEquiPartition{}
	if _, err := RunMulti(nil, MultiConfig{P: 4, L: 10, Allocator: deq}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := RunMulti([]JobSpec{abgSpec("a", 0, p)}, MultiConfig{P: 0, L: 10, Allocator: deq}); err == nil {
		t.Fatal("P=0 accepted")
	}
	if _, err := RunMulti([]JobSpec{abgSpec("a", 0, p)}, MultiConfig{P: 4, L: 0, Allocator: deq}); err == nil {
		t.Fatal("L=0 accepted")
	}
	if _, err := RunMulti([]JobSpec{abgSpec("a", 0, p)}, MultiConfig{P: 4, L: 10}); err == nil {
		t.Fatal("nil allocator accepted")
	}
	if _, err := RunMulti([]JobSpec{{Name: "broken"}}, MultiConfig{P: 4, L: 10, Allocator: deq}); err == nil {
		t.Fatal("missing instance accepted")
	}
}

func TestRunMultiSingleJobMatchesRunSingle(t *testing.T) {
	// One job under DEQ on P processors behaves exactly like RunSingle with
	// an unconstrained allocator of the same P.
	rng := xrand.New(61)
	p := workload.GenJob(rng, workload.ScaledJobParams(6, 30, 2))
	const P, L = 32, 30
	single, err := RunSingle(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
		alloc.NewUnconstrained(P), SingleConfig{L: L})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunMulti([]JobSpec{abgSpec("solo", 0, p)},
		MultiConfig{P: P, L: L, Allocator: alloc.DynamicEquiPartition{}})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Makespan != single.Runtime {
		t.Fatalf("makespan %d != single runtime %d", multi.Makespan, single.Runtime)
	}
	if multi.Jobs[0].NumQuanta != single.NumQuanta {
		t.Fatalf("quanta %d != %d", multi.Jobs[0].NumQuanta, single.NumQuanta)
	}
}

func TestRunMultiTwoJobsShare(t *testing.T) {
	// Two identical wide jobs on a machine that fits exactly one: they
	// space-share and both finish; makespan is roughly double the solo time.
	p1 := workload.ConstantJob(16, 4, 50)
	p2 := workload.ConstantJob(16, 4, 50)
	const P, L = 16, 50
	solo, err := RunMulti([]JobSpec{abgSpec("solo", 0, p1)},
		MultiConfig{P: P, L: L, Allocator: alloc.DynamicEquiPartition{}})
	if err != nil {
		t.Fatal(err)
	}
	both, err := RunMulti([]JobSpec{abgSpec("a", 0, p1), abgSpec("b", 0, p2)},
		MultiConfig{P: P, L: L, Allocator: alloc.DynamicEquiPartition{}})
	if err != nil {
		t.Fatal(err)
	}
	if both.Makespan < solo.Makespan {
		t.Fatalf("sharing cannot beat solo: %d < %d", both.Makespan, solo.Makespan)
	}
	if both.Makespan > 3*solo.Makespan {
		t.Fatalf("sharing too slow: %d vs solo %d", both.Makespan, solo.Makespan)
	}
	for _, j := range both.Jobs {
		if j.Completion == 0 {
			t.Fatalf("job %s never completed", j.Name)
		}
	}
}

func TestRunMultiReleaseTimes(t *testing.T) {
	// A job released mid-quantum must not start before the next boundary.
	const P, L = 8, 100
	early := workload.ConstantJob(2, 2, L)
	late := workload.ConstantJob(2, 2, L)
	res, err := RunMulti([]JobSpec{
		abgSpec("early", 0, early),
		abgSpec("late", 150, late), // arrives inside quantum 2 → starts at t=200
	}, MultiConfig{P: P, L: L, Allocator: alloc.DynamicEquiPartition{}})
	if err != nil {
		t.Fatal(err)
	}
	lateJob := res.Jobs[1]
	// Work cannot have started before step 200, so completion ≥ 200 + T∞.
	if lateJob.Completion < 200+int64(late.CriticalPathLen()) {
		t.Fatalf("late job completed at %d, impossible before %d",
			lateJob.Completion, 200+int64(late.CriticalPathLen()))
	}
	if lateJob.Response != lateJob.Completion-150 {
		t.Fatal("response accounting wrong")
	}
}

func TestRunMultiIdleGap(t *testing.T) {
	// A gap with no active jobs must be skipped, not simulated.
	const L = 10
	res, err := RunMulti([]JobSpec{
		abgSpec("a", 0, workload.ConstantJob(1, 1, L)),
		abgSpec("b", 100000, workload.ConstantJob(1, 1, L)),
	}, MultiConfig{P: 4, L: L, Allocator: alloc.DynamicEquiPartition{}})
	if err != nil {
		t.Fatal(err)
	}
	// Quanta processed should be tiny (about 2 jobs' worth), not 10000.
	if res.QuantaElapsed > 10 {
		t.Fatalf("engine simulated the idle gap: %d quanta", res.QuantaElapsed)
	}
	if res.Jobs[1].Completion < 100000 {
		t.Fatal("job b completed before its release")
	}
}

func TestRunMultiMoreJobsThanProcessors(t *testing.T) {
	// |J| > P: allocator hands out one processor to the first P jobs; the
	// rest stall but everyone eventually completes.
	var specs []JobSpec
	for i := 0; i < 5; i++ {
		specs = append(specs, abgSpec("j", 0, workload.ConstantJob(2, 1, 10)))
	}
	res, err := RunMulti(specs, MultiConfig{P: 2, L: 10, Allocator: alloc.DynamicEquiPartition{}})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range res.Jobs {
		if j.Completion == 0 {
			t.Fatalf("job %d starved", i)
		}
	}
}

func TestRunMultiMaxQuanta(t *testing.T) {
	specs := []JobSpec{abgSpec("a", 0, workload.ConstantJob(2, 10, 10))}
	if _, err := RunMulti(specs, MultiConfig{P: 4, L: 10, Allocator: alloc.DynamicEquiPartition{},
		MaxQuanta: 1}); err == nil {
		t.Fatal("expected max-quanta error")
	}
}

func TestRunMultiWasteAndMeanResponse(t *testing.T) {
	specs := []JobSpec{
		abgSpec("a", 0, workload.ConstantJob(4, 2, 20)),
		abgSpec("b", 0, workload.ConstantJob(4, 2, 20)),
	}
	res, err := RunMulti(specs, MultiConfig{P: 16, L: 20, Allocator: alloc.DynamicEquiPartition{}})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, j := range res.Jobs {
		if j.Waste < 0 {
			t.Fatalf("negative waste: %+v", j)
		}
		total += j.Waste
	}
	if total != res.TotalWaste {
		t.Fatal("TotalWaste mismatch")
	}
	wantMean := float64(res.Jobs[0].Response+res.Jobs[1].Response) / 2
	if res.MeanResponse() != wantMean {
		t.Fatalf("mean response %v, want %v", res.MeanResponse(), wantMean)
	}
	if (MultiResult{}).MeanResponse() != 0 {
		t.Fatal("empty mean response should be 0")
	}
}

// TestRunMultiRespectsLowerBounds: simulated makespan and mean response
// time are never below the theoretical lower bounds used in Figure 6.
func TestRunMultiRespectsLowerBounds(t *testing.T) {
	rng := xrand.New(67)
	const P, L = 32, 40
	for trial := 0; trial < 8; trial++ {
		profiles := workload.GenJobSet(rng, workload.SetParams{
			TargetLoad: 0.5 + rng.Float64()*2, P: P, QuantumLen: L,
			CLMin: 2, CLMax: 20, Shrink: 8, MaxJobs: P,
		})
		var specs []JobSpec
		var infos []metrics.JobInfo
		for i, p := range profiles {
			specs = append(specs, abgSpec("j", 0, p))
			_ = i
			infos = append(infos, metrics.JobInfo{Work: p.Work(), CriticalPath: p.CriticalPathLen()})
		}
		res, err := RunMulti(specs, MultiConfig{P: P, L: L, Allocator: alloc.DynamicEquiPartition{}})
		if err != nil {
			t.Fatal(err)
		}
		mStar := metrics.MakespanLowerBound(infos, P)
		rStar := metrics.ResponseLowerBound(infos, P)
		if float64(res.Makespan) < mStar-1e-9 {
			t.Fatalf("makespan %d below lower bound %v", res.Makespan, mStar)
		}
		if res.MeanResponse() < rStar-1e-9 {
			t.Fatalf("mean response %v below lower bound %v", res.MeanResponse(), rStar)
		}
	}
}

// TestDEQBeatsEqualSplit: with heterogeneous requests, the non-reserving
// DEQ allocator finishes the set no later than the reserving EqualSplit.
func TestDEQBeatsEqualSplit(t *testing.T) {
	const P, L = 32, 40
	mk := func() []JobSpec {
		// One serial job (tiny requests) and two wide jobs.
		specs := []JobSpec{abgSpec("serial", 0, job.Serial(200))}
		for i := 0; i < 2; i++ {
			specs = append(specs, abgSpec("wide", 0, workload.ConstantJob(24, 6, L)))
		}
		return specs
	}
	deqRes, err := RunMulti(mk(), MultiConfig{P: P, L: L, Allocator: alloc.DynamicEquiPartition{}})
	if err != nil {
		t.Fatal(err)
	}
	eqRes, err := RunMulti(mk(), MultiConfig{P: P, L: L, Allocator: alloc.EqualSplit{}})
	if err != nil {
		t.Fatal(err)
	}
	if deqRes.Makespan > eqRes.Makespan {
		t.Fatalf("DEQ makespan %d worse than EqualSplit %d", deqRes.Makespan, eqRes.Makespan)
	}
}

func TestRunMultiKeepTraces(t *testing.T) {
	specs := []JobSpec{
		abgSpec("a", 0, workload.ConstantJob(4, 2, 20)),
		abgSpec("b", 0, workload.ConstantJob(4, 2, 20)),
	}
	res, err := RunMulti(specs, MultiConfig{
		P: 16, L: 20, Allocator: alloc.DynamicEquiPartition{}, KeepTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range res.Jobs {
		if len(j.Quanta) != j.NumQuanta {
			t.Fatalf("job %d: %d trace records vs %d quanta", i, len(j.Quanta), j.NumQuanta)
		}
		var work int64
		for _, q := range j.Quanta {
			work += q.Work
		}
		if work != j.Work {
			t.Fatalf("job %d: trace work %d != %d", i, work, j.Work)
		}
	}
	// Default: no traces.
	res2, err := RunMulti([]JobSpec{abgSpec("a", 0, workload.ConstantJob(4, 2, 20))},
		MultiConfig{P: 16, L: 20, Allocator: alloc.DynamicEquiPartition{}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Jobs[0].Quanta != nil {
		t.Fatal("traces kept by default")
	}
}
