// Package core is the top-level library API of this repository: the paper's
// contribution — the ABG adaptive scheduler (B-Greedy task scheduling +
// A-Control processor-request calculation) — together with the A-Greedy
// baseline, packaged so a user can schedule jobs in a few lines:
//
//	machine := core.Machine{P: 128, L: 1000}
//	res, err := core.RunJob(machine, core.NewABG(0.2), profile)
//	fmt.Println(res.Runtime, res.Waste)
//
// Lower layers remain available for finer control: abg/internal/job and
// abg/internal/dag define jobs, abg/internal/feedback the request policies,
// abg/internal/alloc the OS allocators, and abg/internal/sim the engine.
package core

import (
	"fmt"

	"abg/internal/alloc"
	"abg/internal/control"
	"abg/internal/dag"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/metrics"
	"abg/internal/obs"
	"abg/internal/sched"
	"abg/internal/sim"
)

// Machine describes the simulated multiprocessor: P processors and
// scheduling quanta of L time steps.
type Machine struct {
	P int
	L int
}

// Validate checks the machine parameters.
func (m Machine) Validate() error {
	if m.P < 1 || m.L < 1 {
		return fmt.Errorf("core: invalid machine P=%d L=%d", m.P, m.L)
	}
	return nil
}

// Scheduler bundles a task scheduler with a processor-request policy — one
// contender of the paper's comparison (a "two-level task scheduler").
type Scheduler struct {
	name    string
	policy  feedback.Factory
	ofSched sched.Scheduler
}

// NewABG returns the paper's scheduler: B-Greedy task scheduling with the
// A-Control adaptive integral controller at convergence rate r ∈ [0,1)
// (paper default 0.2; r=0 is one-step convergence).
func NewABG(r float64) Scheduler {
	return Scheduler{
		name:    fmt.Sprintf("ABG(r=%g)", r),
		policy:  feedback.AControlFactory(r),
		ofSched: sched.BGreedy(),
	}
}

// NewAGreedy returns the baseline: plain greedy task scheduling with the
// multiplicative-increase/decrease request policy (paper setup: ρ=2, δ=0.8).
func NewAGreedy(rho, delta float64) Scheduler {
	return Scheduler{
		name:    fmt.Sprintf("A-Greedy(ρ=%g,δ=%g)", rho, delta),
		policy:  feedback.AGreedyFactory(rho, delta),
		ofSched: sched.Greedy(),
	}
}

// NewCustom assembles a scheduler from any policy factory and task
// scheduler, for experiments beyond the paper's two contenders.
func NewCustom(name string, policy feedback.Factory, ts sched.Scheduler) Scheduler {
	return Scheduler{name: name, policy: policy, ofSched: ts}
}

// Name returns the scheduler's display name.
func (s Scheduler) Name() string { return s.name }

// TaskScheduler exposes the underlying task scheduler.
func (s Scheduler) TaskScheduler() sched.Scheduler { return s.ofSched }

// NewPolicy creates a fresh per-job request policy.
func (s Scheduler) NewPolicy() feedback.Policy { return s.policy() }

// RunJob simulates one profile job alone on the machine, every request
// granted up to P (the paper's unconstrained single-job setting), and
// returns the full per-quantum trace.
func RunJob(m Machine, s Scheduler, p *job.Profile) (sim.SingleResult, error) {
	if err := m.Validate(); err != nil {
		return sim.SingleResult{}, err
	}
	return sim.RunSingle(job.NewRun(p), s.NewPolicy(), s.ofSched,
		alloc.NewUnconstrained(m.P), sim.SingleConfig{L: m.L, KeepTrace: true})
}

// RunDag is RunJob for an explicit dag job.
func RunDag(m Machine, s Scheduler, g *dag.Graph) (sim.SingleResult, error) {
	if err := m.Validate(); err != nil {
		return sim.SingleResult{}, err
	}
	return sim.RunSingle(dag.NewRun(g), s.NewPolicy(), s.ofSched,
		alloc.NewUnconstrained(m.P), sim.SingleConfig{L: m.L, KeepTrace: true})
}

// RunJobConstrained simulates one profile job under an arbitrary
// availability function p(q) (clamped to [1, P]) — the trim-analysis
// setting where the OS allocator may behave adversarially.
func RunJobConstrained(m Machine, s Scheduler, p *job.Profile, avail func(q int) int) (sim.SingleResult, error) {
	if err := m.Validate(); err != nil {
		return sim.SingleResult{}, err
	}
	return sim.RunSingle(job.NewRun(p), s.NewPolicy(), s.ofSched,
		alloc.NewAvailabilityTrace(m.P, avail, "constrained"), sim.SingleConfig{L: m.L, KeepTrace: true})
}

// Submission is one job of a multiprogrammed job set.
type Submission struct {
	// Name labels the job in the result (optional).
	Name string
	// Release is the arrival time in steps (0 = batched).
	Release int64
	// Profile is the job to run.
	Profile *job.Profile
}

// RunJobSet space-shares the machine among the submissions under the
// dynamic equi-partitioning OS allocator (fair and non-reserving, as the
// paper's Theorem 5 requires), with every job driven by the given scheduler.
func RunJobSet(m Machine, s Scheduler, subs []Submission) (sim.MultiResult, error) {
	return RunJobSetWith(m, s, subs, alloc.DynamicEquiPartition{})
}

// RunJobSetWith is RunJobSet with an explicit multi-job allocator.
func RunJobSetWith(m Machine, s Scheduler, subs []Submission, allocator alloc.Multi) (sim.MultiResult, error) {
	if err := m.Validate(); err != nil {
		return sim.MultiResult{}, err
	}
	specs := make([]sim.JobSpec, len(subs))
	for i, sub := range subs {
		if sub.Profile == nil {
			return sim.MultiResult{}, fmt.Errorf("core: submission %d has no profile", i)
		}
		specs[i] = sim.JobSpec{
			Name:    sub.Name,
			Release: sub.Release,
			Inst:    job.NewRun(sub.Profile),
			Policy:  s.NewPolicy(),
			Sched:   s.ofSched,
		}
	}
	return sim.RunMulti(specs, sim.MultiConfig{P: m.P, L: m.L, Allocator: allocator})
}

// RunJobObserved is RunJob with a live instrumentation bus attached: every
// quantum's request, allotment, measured statistics and deprivation
// transitions are emitted on bus as the run executes (see abg/internal/obs).
func RunJobObserved(m Machine, s Scheduler, p *job.Profile, bus *obs.Bus) (sim.SingleResult, error) {
	if err := m.Validate(); err != nil {
		return sim.SingleResult{}, err
	}
	return sim.RunSingle(job.NewRun(p), s.NewPolicy(), s.ofSched,
		alloc.NewUnconstrained(m.P),
		sim.SingleConfig{L: m.L, KeepTrace: true, Obs: bus})
}

// RunJobSetObserved is RunJobSetWith with a live instrumentation bus and
// per-job traces retained, so the run can both be watched in flight and
// exported as a Perfetto timeline afterwards (obs.Timeline).
func RunJobSetObserved(m Machine, s Scheduler, subs []Submission,
	allocator alloc.Multi, bus *obs.Bus) (sim.MultiResult, error) {

	if err := m.Validate(); err != nil {
		return sim.MultiResult{}, err
	}
	specs := make([]sim.JobSpec, len(subs))
	for i, sub := range subs {
		if sub.Profile == nil {
			return sim.MultiResult{}, fmt.Errorf("core: submission %d has no profile", i)
		}
		specs[i] = sim.JobSpec{
			Name:    sub.Name,
			Release: sub.Release,
			Inst:    job.NewRun(sub.Profile),
			Policy:  s.NewPolicy(),
			Sched:   s.ofSched,
		}
	}
	return sim.RunMulti(specs, sim.MultiConfig{
		P: m.P, L: m.L, Allocator: allocator, KeepTrace: true, Obs: bus,
	})
}

// Report is the post-hoc analysis of a single-job run: the algorithmic
// metrics of §6 plus the control-theoretic metrics of §4 measured on the
// request trace.
type Report struct {
	// TransitionFactor is C_L measured from the executed trace.
	TransitionFactor float64
	// NormalizedRuntime is T/T∞ and NormalizedWaste is W/T1.
	NormalizedRuntime, NormalizedWaste float64
	// Speedup is T1/T; Utilization is useful cycles over allotted cycles.
	Speedup, Utilization float64
	// Requests is the control-theoretic view of the request trace against
	// the job's overall average parallelism.
	Requests control.ResponseMetrics
	// Oscillations counts request crossings of the average parallelism.
	Oscillations int
	// Parallelism characterises how the measured parallelism moved across
	// quanta (§9's alternative job characteristics: change frequency and
	// magnitude beyond the single worst-case ratio C_L).
	Parallelism metrics.ParallelismProfile
}

// Analyze derives a Report from a traced single-job result. It needs the
// per-quantum trace (run with KeepTrace).
func Analyze(res sim.SingleResult) (Report, error) {
	if len(res.Quanta) == 0 {
		return Report{}, fmt.Errorf("core: result carries no quantum trace")
	}
	rep := Report{
		TransitionFactor:  metrics.TransitionFactorFromQuanta(res.Quanta),
		NormalizedRuntime: res.NormalizedRuntime(),
		NormalizedWaste:   res.NormalizedWaste(),
		Speedup:           res.Speedup(),
		Utilization:       res.Utilization(),
		Parallelism:       metrics.ParallelismProfileFromQuanta(res.Quanta),
	}
	target := float64(res.Work) / float64(res.CriticalPath)
	reqs := res.Requests()
	rep.Requests = control.Measure(reqs, target)
	rep.Oscillations = control.OscillationCount(reqs, target)
	return rep, nil
}
