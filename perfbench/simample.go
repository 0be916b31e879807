package main

import (
	"runtime"

	"abg/internal/alloc"
	"abg/internal/core"
	"abg/internal/job"
	"abg/internal/sim"
	"abg/internal/workload"
	"abg/internal/xrand"
)

// sim-ample sizing. At L=100 and phase lengths halved (shrink 2) a job holds
// about 1,100 levels, ~27 KB of profile and run state, so 12,000 jobs keep
// ~350 MB live: far past the last-level cache, yet small enough for a shared
// machine. One episode steps ~20 boundaries and ~200,000 job-quanta.
const (
	simJobs   = 12000
	simL      = 100
	simShrink = 2
	simCLMin  = 2
	simCLMax  = 100
	simR      = 0.2 // the paper's A-Control convergence rate
)

// genSimProfiles draws the sim-ample job set from the seed: fork-join jobs
// of the paper's §7 family with transition factors spread over [2, 100].
func genSimProfiles(seed uint64) []*job.Profile {
	rng := xrand.New(seed)
	profs := make([]*job.Profile, simJobs)
	for i := range profs {
		cl := spreadCL(i, simCLMin, simCLMax)
		profs[i] = workload.GenJob(rng, workload.ScaledJobParams(cl, simL, simShrink))
	}
	return profs
}

// spreadCL is job i's transition factor: [lo, hi] swept in a fixed,
// scattered order (the stride 37 is prime to every range used here, so
// each factor recurs evenly). Every job set then holds the same mix of
// factors and the seed varies the jobs' phase structure only; drawing the
// factor at random as well would make a run's total work, and every rate
// with it, depend on the seed far more than on the code.
func spreadCL(i, lo, hi int) int { return lo + (i*37)%(hi-lo+1) }

// simMachine sizes P at twice the jobs' summed widths, so every allotment
// covers its job's frontier and no job is ever deprived for lack of P.
func simMachine(profs []*job.Profile) int {
	sum := 0
	for _, p := range profs {
		sum += p.MaxWidth()
	}
	return 2 * sum
}

func runSimAmple(e *env, traced bool) (*phase, error) {
	p := &phase{}
	s := series{}
	var submitMs, turnMs [][]float64
	var stepMs []float64
	var fps []uint64 // each episode's fingerprint
	reset := func() { s, submitMs, turnMs, stepMs, fps = series{}, nil, nil, nil, nil }
	// Only the untraced phase warms up: the traced one runs in the same
	// process after it.
	err := episodes(e.seconds, !traced, reset, func(ep int) error {
		// Collecting here also frees the previous episode's job set before
		// this one is stepped.
		heap0 := liveHeapMB()
		st := &layerStats{}
		t0 := now()
		profs := genSimProfiles(e.seed)
		P := simMachine(profs)
		var allocator alloc.Multi = alloc.DynamicEquiPartition{}
		if traced {
			allocator = &tracedMulti{inner: alloc.NewAllotter(alloc.DynamicEquiPartition{}), s: st}
		}
		eng, err := sim.NewEngine(sim.MultiConfig{P: P, L: simL, Allocator: allocator})
		if err != nil {
			return err
		}
		abg := core.NewABG(simR)
		specs := make([]sim.JobSpec, len(profs))
		for i, prof := range profs {
			var inst job.Instance = job.NewRun(prof)
			pol := abg.NewPolicy()
			if traced {
				inst = &tracedInstance{Instance: inst, s: st}
				pol = &tracedPolicy{Policy: pol, s: st}
			}
			specs[i] = sim.JobSpec{Inst: inst, Policy: pol, Sched: abg.TaskScheduler()}
		}
		// Building the job set allocates hundreds of megabytes; collect
		// before submitting, or the submissions' latency tail measures
		// whichever of them the collector happened to tax.
		runtime.GC()
		sub, turn := make([]float64, 0, len(specs)), make([]float64, 0, len(specs))
		for _, spec := range specs {
			ts := now()
			_, err := eng.Submit(spec)
			sub = append(sub, float64(now()-ts)/1e6)
			p.attempted++
			if err != nil {
				p.failed++
				return err
			}
		}
		s.put("setup_s", float64(now()-t0)/1e9)

		var rt *runtimeDelta
		if traced {
			rt = startRuntimeDelta()
		}
		done := make([]bool, len(profs))
		var stepNs int64
		steps := 0
		start := now()
		for !eng.Done() {
			ts := now()
			info, err := eng.Step()
			te := now()
			if err != nil {
				return err
			}
			steps++
			stepNs += te - ts
			if traced {
				e.tracer.record("sim.Engine.Step", ts, te)
				stepMs = append(stepMs, float64(te-ts)/1e6)
			}
			for _, id := range info.Completed {
				done[id] = true
				turn = append(turn, float64(te-start)/1e6)
			}
		}
		wall := float64(now()-start) / 1e9
		submitMs, turnMs = append(submitMs, sub), append(turnMs, turn)
		s.put("peak_heap_mb", liveHeapMB()-heap0)
		res := eng.Result()

		out := simOutcomeOf(P, res, done)
		var jobQuanta, deprivedQ int
		for _, j := range res.Jobs {
			jobQuanta += j.NumQuanta
			deprivedQ += j.DeprivedQ
		}
		for _, problem := range checkSim(profs, out) {
			p.fail("sim-ample: %s", problem)
		}
		fps = append(fps, out.fingerprint())

		s.put("job_quanta_per_s", float64(jobQuanta)/wall)
		s.put("jobs_per_s", float64(len(res.Jobs))/wall)
		if traced {
			rt.add(s, float64(jobQuanta))
			jq := float64(jobQuanta)
			self := float64(stepNs) - st.kernelEstimateNs() - float64(st.feedbackNs) - float64(st.allotNs)
			s.put("sim.step_calls", float64(steps))
			s.put("sim.self_ns_per_job_quantum", self/jq)
			s.put("job.step_calls", float64(st.kernelCalls))
			s.put("job.tasks", float64(st.kernelTasks))
			s.put("job.ns_per_task", st.kernelEstimateNs()/float64(st.kernelTasks))
			s.put("feedback.requests", float64(st.feedbackCalls))
			s.put("feedback.ns_per_request", float64(st.feedbackNs)/float64(st.feedbackCalls))
			s.put("alloc.allot_calls", float64(st.allotCalls))
			s.put("alloc.ns_per_allot", float64(st.allotNs)/float64(st.allotCalls))
			s.put("alloc.deprived_ratio", float64(deprivedQ)/jq)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ep, fp := range fps {
		if fp != fps[0] {
			p.fail("sim-ample: episode %d fingerprint %016x differs from episode 0's %016x", ep, fp, fps[0])
		}
	}
	e.fingerprints = append(e.fingerprints, fps[0])
	p.throughput = median(s["job_quanta_per_s"])
	if traced {
		p.add("sim.step_ms.p50", quantile(stepMs, 0.5), "ms", len(stepMs))
		p.add("sim.step_ms.p99", quantile(stepMs, 0.99), "ms", len(stepMs))
		reportLayers(p, s, submitMs, turnMs)
		return p, nil
	}
	reportEndToEnd(p, s, turnMs)
	return p, nil
}

// simJob is the part of a job's outcome the sim-ample checks read.
type simJob struct {
	Work       int64
	Response   int64
	Completion int64
	Waste      int64
	NumQuanta  int
	DeprivedQ  int
	Done       bool
}

// simOutcome is one sim-ample episode's result.
type simOutcome struct {
	P        int
	Makespan int64
	Jobs     []simJob
}

// simOutcomeOf extracts the checked part of an engine result; done[i]
// reports whether a Step ever listed job i as completed.
func simOutcomeOf(p int, res sim.MultiResult, done []bool) simOutcome {
	out := simOutcome{P: p, Makespan: res.Makespan, Jobs: make([]simJob, len(res.Jobs))}
	for i, j := range res.Jobs {
		out.Jobs[i] = simJob{Work: j.Work, Response: j.Response,
			Completion: j.Completion, Waste: j.Waste, NumQuanta: j.NumQuanta,
			DeprivedQ: j.DeprivedQ, Done: i < len(done) && done[i]}
	}
	return out
}
