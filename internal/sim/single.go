// Package sim is the quantum-driven discrete-time simulation engine of the
// two-level scheduling framework. It drives jobs (job.Instance) through
// scheduling quanta: between quanta a feedback policy computes the processor
// request, an OS allocator grants an allotment, and the task scheduler
// executes the quantum while measuring it (sched.RunQuantum).
//
// RunSingle simulates one job on a machine by itself (the paper's first
// simulation set, Figure 5); RunMulti space-shares a machine among a job set
// via a multi-job allocator such as dynamic equi-partitioning (Figure 6).
// Reallocation happens only at quantum boundaries and scheduling overheads
// are ignored, exactly as in the paper.
package sim

import (
	"fmt"
	"math"

	"abg/internal/alloc"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/sched"
)

// DefaultMaxQuanta bounds runaway simulations; generously above anything the
// experiments need.
const DefaultMaxQuanta = 1 << 22

// SingleConfig configures a single-job simulation.
type SingleConfig struct {
	// L is the quantum length in steps; required, ≥ 1.
	L int
	// MaxQuanta caps the simulation; DefaultMaxQuanta when zero.
	MaxQuanta int
	// KeepTrace records per-quantum stats in the result. Off by default —
	// the sweeps run millions of quanta and must not hold traces alive —
	// and opt-in, the same name and polarity as MultiConfig and
	// AdaptiveLConfig.
	KeepTrace bool
	// Obs receives the live instrumentation events of the run (see
	// abg/internal/obs). Nil — the zero value — disables emission; with a
	// bus attached but no subscribers the cost is one atomic load per
	// emission site.
	Obs *obs.Bus
	// Capacity optionally varies the machine's effective processor count
	// over time (capacity churn): the allocator's grant for quantum q is
	// additionally capped by Capacity.At(q), and an obs.EvCapacity event is
	// emitted whenever the effective capacity changes. Nil reproduces the
	// paper's fixed machine bit-for-bit.
	Capacity alloc.Capacity
	// Restart optionally injects job failures (see RestartPlan). Nil — the
	// zero value — leaves the run failure-free.
	Restart *RestartPlan
}

// SingleResult is the outcome of simulating one job alone.
type SingleResult struct {
	// Quanta holds one record per scheduling quantum with Index, Request and
	// Deprived filled in (empty when the config dropped the trace).
	Quanta []sched.QuantumStats
	// NumQuanta is the number of quanta executed (valid even without trace).
	NumQuanta int
	// Runtime is the job's execution time T in steps: full quanta count L,
	// the final quantum counts only up to the completing step.
	Runtime int64
	// Work and CriticalPath echo the job's T1 and T∞.
	Work         int64
	CriticalPath int
	// Waste is the number of allotted-but-unused processor cycles while the
	// job ran: Σ_q a(q)·steps(q) − T1.
	Waste int64
	// BoundaryWaste is the tail of the final quantum, a(last)·(L − steps):
	// cycles the non-reserving allocator cannot reclaim until the next
	// boundary. Reported separately; the paper's Theorem 4 budget P·L for
	// the last quantum covers both.
	BoundaryWaste int64
	// AllottedCycles is Σ_q a(q)·steps(q).
	AllottedCycles int64
	// Restarts counts injected job failures (SingleConfig.Restart) and
	// LostWork the completed work thrown away by them. Work is conserved:
	// the executed work across all attempts is Work + LostWork.
	Restarts int
	LostWork int64
}

// Speedup returns T1/T, the speedup over serial execution.
func (r SingleResult) Speedup() float64 {
	if r.Runtime == 0 {
		return 0
	}
	return float64(r.Work) / float64(r.Runtime)
}

// NormalizedRuntime returns T/T∞ — Figure 5(a)'s y-axis (1.0 is optimal in
// an unconstrained environment).
func (r SingleResult) NormalizedRuntime() float64 {
	if r.CriticalPath == 0 {
		return 0
	}
	return float64(r.Runtime) / float64(r.CriticalPath)
}

// NormalizedWaste returns W/T1 — Figure 5(c)'s y-axis.
func (r SingleResult) NormalizedWaste() float64 {
	if r.Work == 0 {
		return 0
	}
	return float64(r.Waste) / float64(r.Work)
}

// Utilization returns T1 / Σ a(q)·steps(q), the fraction of allotted cycles
// spent on useful work.
func (r SingleResult) Utilization() float64 {
	if r.AllottedCycles == 0 {
		return 0
	}
	return float64(r.Work) / float64(r.AllottedCycles)
}

// Requests returns the request trace d(q) (needs the trace).
func (r SingleResult) Requests() []float64 {
	out := make([]float64, len(r.Quanta))
	for i, q := range r.Quanta {
		out[i] = q.Request
	}
	return out
}

// Allotments returns the allotment trace a(q) (needs the trace).
func (r SingleResult) Allotments() []int {
	out := make([]int, len(r.Quanta))
	for i, q := range r.Quanta {
		out[i] = q.Allotment
	}
	return out
}

// Parallelisms returns the measured A(q) trace (needs the trace).
func (r SingleResult) Parallelisms() []float64 {
	out := make([]float64, len(r.Quanta))
	for i, q := range r.Quanta {
		out[i] = q.AvgParallelism()
	}
	return out
}

// RoundRequest converts the continuous controller output into the integer
// processor request presented to the OS allocator: ⌈d⌉, at least 1.
func RoundRequest(d float64) int {
	r := int(math.Ceil(d - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// RunSingle simulates the job alone on the machine. The policy drives
// requests, the allocator grants allotments, and the scheduler executes each
// quantum. It returns an error only if the safety cap on quanta is hit.
func RunSingle(inst job.Instance, pol feedback.Policy, sc sched.Scheduler,
	allocator alloc.Single, cfg SingleConfig) (SingleResult, error) {

	if cfg.L < 1 {
		return SingleResult{}, fmt.Errorf("sim: quantum length %d < 1", cfg.L)
	}
	maxQ := cfg.MaxQuanta
	if maxQ <= 0 {
		maxQ = DefaultMaxQuanta
	}
	res := SingleResult{
		Work:         inst.TotalWork(),
		CriticalPath: inst.CriticalPathLen(),
	}
	bus := cfg.Obs
	if bus.Active() {
		bus.Emit(obs.Event{Kind: obs.EvJobAdmitted, Work: res.Work,
			Parallelism: avgParallelism(res.Work, res.CriticalPath)})
	}
	d := pol.InitialRequest()
	deprived := false
	capNow := -1          // last emitted effective capacity
	var attemptWork int64 // work completed since the last (re)start
	var scr sched.Scratch // reused across quanta; measurements are identical
	for q := 1; !inst.Done(); q++ {
		if q > maxQ {
			return res, fmt.Errorf("sim: job did not finish within %d quanta", maxQ)
		}
		start := res.Runtime
		req := RoundRequest(d)
		if bus.Active() {
			bus.Emit(obs.Event{Kind: obs.EvRequest, Time: start, Quantum: q,
				Request: d, IntRequest: req})
		}
		a := allocator.Grant(q, req)
		if cfg.Capacity != nil {
			pq := cfg.Capacity.At(q)
			if pq < 0 {
				pq = 0
			}
			if pq != capNow {
				capNow = pq
				if bus.Active() {
					bus.Emit(obs.Event{Kind: obs.EvCapacity, Time: start, Quantum: q,
						Job: -1, Name: cfg.Capacity.Name(), P: pq})
				}
			}
			if a > pq {
				a = pq
			}
		}
		if bus.Active() {
			bus.Emit(obs.Event{Kind: obs.EvAllotment, Time: start, Quantum: q,
				IntRequest: req, Allotment: a, Deprived: a < req})
		}
		st := sched.RunQuantumScratch(inst, sc, a, cfg.L, &scr)
		st.Index = q
		st.Start = start
		st.Request = d
		st.Deprived = a < req
		res.NumQuanta++
		res.Runtime += int64(st.Steps)
		res.AllottedCycles += int64(a) * int64(st.Steps)
		res.Waste += st.Waste()
		attemptWork += st.Work
		if st.Completed {
			res.BoundaryWaste = int64(a) * int64(cfg.L-st.Steps)
		}
		if cfg.KeepTrace {
			res.Quanta = append(res.Quanta, st)
		}
		if bus.Active() {
			emitQuantum(bus, st, 0, "", &deprived)
			if st.Completed {
				bus.Emit(obs.Event{Kind: obs.EvJobCompleted, Time: res.Runtime,
					Work: res.Work, Response: res.Runtime})
			}
		} else {
			deprived = st.Deprived
		}
		if !st.Completed && cfg.Restart.fires(q, res.Restarts) {
			res.Restarts++
			res.LostWork += attemptWork
			if bus.Active() {
				bus.Emit(obs.Event{Kind: obs.EvJobRestarted, Time: res.Runtime,
					Quantum: q, Work: attemptWork})
			}
			attemptWork = 0
			inst = cfg.Restart.New()
			pol.Reset()
			d = pol.InitialRequest()
			continue
		}
		d = pol.NextRequest(st)
	}
	return res, nil
}

// avgParallelism is T1/T∞ guarded against an empty critical path.
func avgParallelism(work int64, cpl int) float64 {
	if cpl == 0 {
		return 0
	}
	return float64(work) / float64(cpl)
}

// emitQuantum emits the measured-quantum event plus a deprivation
// transition when the state stored in *wasDeprived flipped. The caller has
// already checked bus.Active().
func emitQuantum(bus *obs.Bus, st sched.QuantumStats, jobIdx int, name string, wasDeprived *bool) {
	bus.Emit(obs.Event{Kind: obs.EvQuantumEnd, Time: st.Start + int64(st.Steps),
		Quantum: st.Index, Job: jobIdx, Name: name,
		Request: st.Request, Allotment: st.Allotment, Steps: st.Steps,
		Work: st.Work, Waste: st.Waste(), Parallelism: st.AvgParallelism(),
		Deprived: st.Deprived, Completed: st.Completed})
	if st.Deprived != *wasDeprived {
		kind := obs.EvSatisfied
		if st.Deprived {
			kind = obs.EvDeprived
		}
		bus.Emit(obs.Event{Kind: kind, Time: st.Start, Quantum: st.Index,
			Job: jobIdx, Name: name, Allotment: st.Allotment})
	}
	*wasDeprived = st.Deprived
}
