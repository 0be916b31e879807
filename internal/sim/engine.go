package sim

import (
	"fmt"
	"runtime"

	"abg/internal/alloc"
	"abg/internal/obs"
	"abg/internal/parallel"
	"abg/internal/sched"
)

// Engine is the incremental form of the multiprogrammed simulator: the body
// of RunMulti exposed as a stepped state machine. Where RunMulti materialises
// the whole job set up front and runs to completion, an Engine accepts jobs
// while it runs — Submit enqueues a job that becomes schedulable at the next
// quantum boundary, Step advances the simulation by exactly one boundary, and
// Drain stops admission so the remaining work can be run down. RunMulti is a
// thin wrapper over the Engine, and stepped execution reproduces its event
// stream and MultiResult bit-identically.
//
// An Engine is not safe for concurrent use; callers that drive it from
// multiple goroutines (e.g. abg/internal/server) must serialise access.
type Engine struct {
	cfg  MultiConfig
	maxQ int
	L64  int64

	states    []jobState
	res       MultiResult
	remaining int
	k         int // next quantum boundary to process
	capNow    int // last emitted effective capacity
	draining  bool

	// Reusable per-boundary scratch. allot wraps the configured allocator
	// with buffer reuse; qstats holds the execute phase's per-position
	// measurements; scratch is the per-step-worker quantum scratch (worker w
	// owns scratch[w] exclusively while a step's execute phase runs);
	// statusBuf backs Statuses.
	activeIdx []int
	requests  []int
	allot     *alloc.Allotter
	qstats    []sched.QuantumStats
	scratch   []sched.Scratch
	statusBuf []JobStatus
}

// jobState is the engine's per-job bookkeeping.
type jobState struct {
	spec        *JobSpec
	request     float64
	started     bool
	done        bool
	deprived    bool
	attemptWork int64 // work completed since the job's last (re)start
	last        sched.QuantumStats
	// timeline is the bounded quantum-sample ring (MultiConfig.TimelineRing);
	// observational only, excluded from snapshots.
	timeline *timelineRing
}

// StepInfo reports what one Step processed.
type StepInfo struct {
	// Boundary is the global boundary index that was processed (the k-th
	// quantum boundary, 0-based); Time is its simulation step, k·L.
	Boundary int
	Time     int64
	// Executed reports that at least one job was active and a quantum ran.
	Executed bool
	// Idle reports that no unfinished job exists: time advanced one quantum
	// with nothing to do (only a live service ever observes this).
	Idle bool
	// FastForwarded reports that every unfinished job is released in the
	// future and the clock jumped to the boundary at or after the earliest
	// release (the same jump RunMulti performs).
	FastForwarded bool
	// Active is the number of jobs that took part in the executed quantum.
	Active int
	// Completed lists the ids of jobs that finished during this step.
	Completed []int
	// QuantaElapsed is the global boundary count after this step.
	QuantaElapsed int
}

// JobState classifies a job's lifecycle stage.
type JobState uint8

const (
	// JobPending: submitted, but its release is still in the future.
	JobPending JobState = iota
	// JobRunning: admitted and executing.
	JobRunning
	// JobDone: all tasks complete.
	JobDone
)

// String returns the state's lowercase name.
func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// JobStatus is a live snapshot of one job — the per-job view a service
// exposes while the engine runs. Request is the current continuous d(q);
// Allotment, Parallelism and Deprived describe the job's last executed
// quantum.
type JobStatus struct {
	ID           int
	Name         string
	State        JobState
	Release      int64
	Completion   int64 // valid when State == JobDone
	Response     int64 // valid when State == JobDone
	Work         int64
	CriticalPath int
	Request      float64 // current continuous request d(q)
	IntRequest   int     // ⌈d(q)⌉ as presented to the allocator
	Allotment    int     // a(q) of the last executed quantum
	Parallelism  float64 // measured A(q) of the last executed quantum
	Deprived     bool    // last executed quantum was deprived
	NumQuanta    int
	DeprivedQ    int
	Restarts     int
	LostWork     int64
	Waste        int64
}

// NewEngine validates the machine configuration and returns an empty engine
// at boundary 0 with no jobs submitted.
func NewEngine(cfg MultiConfig) (*Engine, error) {
	if cfg.P < 1 || cfg.L < 1 {
		return nil, fmt.Errorf("sim: invalid machine P=%d L=%d", cfg.P, cfg.L)
	}
	if cfg.Allocator == nil {
		return nil, fmt.Errorf("sim: nil allocator")
	}
	maxQ := cfg.MaxQuanta
	if maxQ <= 0 {
		maxQ = DefaultMaxQuanta
	}
	return &Engine{cfg: cfg, maxQ: maxQ, L64: int64(cfg.L), capNow: -1,
		allot: alloc.NewAllotter(cfg.Allocator)}, nil
}

// stepWorkers resolves MultiConfig.StepWorkers against the number of jobs
// active this boundary: ≤ 0 selects one worker per CPU, and the count never
// exceeds the active job count.
func (e *Engine) stepWorkers(active int) int {
	w := e.cfg.StepWorkers
	if w <= 0 {
		if w == 0 {
			return 1 // default: serial
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > active {
		w = active
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Submit adds a job to the running simulation and returns its id (dense,
// in submission order). The job becomes schedulable at the first boundary at
// or after its Release; a Release at or before Now lands on the next
// processed boundary. The engine owns a copy of the spec, so a restart never
// mutates the caller's value. Submit fails after Drain.
func (e *Engine) Submit(spec JobSpec) (int, error) {
	if e.draining {
		return -1, fmt.Errorf("sim: engine is draining, submission rejected")
	}
	if spec.Inst == nil || spec.Policy == nil {
		return -1, fmt.Errorf("sim: job %d missing instance or policy", len(e.states))
	}
	sp := spec
	id := len(e.states)
	e.states = append(e.states, jobState{spec: &sp})
	e.res.Jobs = append(e.res.Jobs, JobOutcome{
		Name:         sp.Name,
		Release:      sp.Release,
		Work:         sp.Inst.TotalWork(),
		CriticalPath: sp.Inst.CriticalPathLen(),
	})
	e.remaining++
	return id, nil
}

// Drain stops admission: every later Submit fails, while the jobs already
// accepted keep running to completion. Draining is idempotent.
func (e *Engine) Drain() { e.draining = true }

// Draining reports whether Drain has been called.
func (e *Engine) Draining() bool { return e.draining }

// Done reports whether every submitted job has completed.
func (e *Engine) Done() bool { return e.remaining == 0 }

// NumJobs returns the number of jobs submitted so far.
func (e *Engine) NumJobs() int { return len(e.states) }

// Boundary returns the index of the next quantum boundary to process.
func (e *Engine) Boundary() int { return e.k }

// Now returns the simulation time of the next boundary, Boundary()·L.
func (e *Engine) Now() int64 { return int64(e.k) * e.L64 }

// QuantaElapsed returns the number of executed global boundaries.
func (e *Engine) QuantaElapsed() int { return e.res.QuantaElapsed }

// Remaining returns the number of admitted-but-unfinished jobs.
func (e *Engine) Remaining() int { return e.remaining }

// AggregateRequest sums the integer processor requests of every admitted,
// unfinished job — the engine's aggregate desire for the next quantum. This
// is the second level of the paper's feedback protocol: just as each job
// reports a desire d(q) to its engine, an engine reports Σ d(q) to a
// cluster-level allocator, which partitions the machine across engine shards
// by the same desire/allotment rules (see internal/cluster). The value is a
// pure function of engine state and reading it never perturbs the run.
func (e *Engine) AggregateRequest() int {
	total := 0
	for i := range e.states {
		s := &e.states[i]
		if s.started && !s.done {
			total += RoundRequest(s.request)
		}
	}
	return total
}

// Step advances the simulation by one quantum boundary: it admits every
// submitted job whose release has arrived, collects their requests, invokes
// the allocator once, executes one quantum per active job, and feeds the
// measured statistics back into each job's policy — exactly one iteration of
// RunMulti's loop. When every unfinished job is released in the future the
// clock jumps to the earliest release boundary instead (FastForwarded); with
// no unfinished jobs at all it advances one idle quantum (Idle).
func (e *Engine) Step() (StepInfo, error) {
	info := StepInfo{Boundary: e.k, Time: int64(e.k) * e.L64,
		QuantaElapsed: e.res.QuantaElapsed}
	if e.remaining == 0 {
		// Nothing submitted and unfinished: a live service idling between
		// arrivals. Time advances; the MaxQuanta budget (a bound on how long
		// a job set may take, not on service uptime) is not consumed.
		e.k++
		info.Idle = true
		return info, nil
	}
	if e.k > e.maxQ {
		return info, fmt.Errorf("sim: job set did not finish within %d quanta", e.maxQ)
	}
	cfg := &e.cfg
	now := info.Time
	// Collect active jobs; fast-forward if none are released yet.
	e.activeIdx = e.activeIdx[:0]
	var nextRelease int64 = -1
	for i := range e.states {
		s := &e.states[i]
		if s.done {
			continue
		}
		if s.spec.Release > now {
			if nextRelease < 0 || s.spec.Release < nextRelease {
				nextRelease = s.spec.Release
			}
			continue
		}
		if !s.started {
			s.started = true
			s.request = s.spec.Policy.InitialRequest()
			if cfg.Obs.Active() {
				cfg.Obs.Emit(obs.Event{Kind: obs.EvJobAdmitted, Time: now,
					Job: i, Name: s.spec.Name, Work: e.res.Jobs[i].Work,
					Parallelism: avgParallelism(e.res.Jobs[i].Work, e.res.Jobs[i].CriticalPath)})
			}
			if s.spec.Inst.Done() {
				// A zero-work job (nothing left to execute) completes in its
				// arrival quantum: running it through the allocator would
				// never raise Completed and the job would hang the set.
				e.completeJob(i, now)
				info.Completed = append(info.Completed, i)
				continue
			}
		}
		e.activeIdx = append(e.activeIdx, i)
	}
	if len(e.activeIdx) == 0 {
		if e.remaining == 0 {
			// Zero-work admissions emptied the system at this boundary.
			e.k++
			info.QuantaElapsed = e.res.QuantaElapsed
			return info, nil
		}
		// Jump to the boundary at or after the next release.
		e.k = int((nextRelease + e.L64 - 1) / e.L64)
		info.FastForwarded = true
		return info, nil
	}
	e.res.QuantaElapsed++
	info.Executed = true
	info.Active = len(e.activeIdx)
	e.requests = e.requests[:0]
	for _, i := range e.activeIdx {
		r := RoundRequest(e.states[i].request)
		e.requests = append(e.requests, r)
		if cfg.Obs.Active() {
			cfg.Obs.Emit(obs.Event{Kind: obs.EvRequest, Time: now,
				Quantum: e.res.Jobs[i].NumQuanta + 1, Job: i, Name: e.states[i].spec.Name,
				Request: e.states[i].request, IntRequest: r})
		}
	}
	pEff := cfg.P
	if cfg.Capacity != nil {
		pEff = alloc.CapAt(cfg.Capacity, e.k+1, cfg.P)
		if pEff != e.capNow {
			e.capNow = pEff
			if cfg.Obs.Active() {
				cfg.Obs.Emit(obs.Event{Kind: obs.EvCapacity, Time: now,
					Quantum: e.res.QuantaElapsed, Job: -1,
					Name: cfg.Capacity.Name(), P: pEff})
			}
		}
	}
	allots := e.allot.Allot(e.requests, pEff)
	if cfg.Obs.Active() {
		totalReq, totalAllot := 0, 0
		for pos := range e.requests {
			totalReq += e.requests[pos]
			totalAllot += allots[pos]
		}
		cfg.Obs.Emit(obs.Event{Kind: obs.EvAllocDecision, Time: now,
			Quantum: e.res.QuantaElapsed, Job: -1, Name: cfg.Allocator.Name(),
			P: pEff, IntRequest: totalReq, Allotment: totalAllot})
	}
	// Execute phase: run every granted job's quantum. Each execution is
	// self-contained — the job's own instance plus one per-worker Scratch —
	// and the measured stats land by position, so the phase parallelises
	// across jobs without changing any observable output: every read or
	// write of shared engine state (events, traces, waste, restarts,
	// completions, feedback) happens in the reduce loop below, serially and
	// in job-index order, exactly as the serial engine did it.
	if cap(e.qstats) < len(e.activeIdx) {
		e.qstats = make([]sched.QuantumStats, len(e.activeIdx))
	}
	qstats := e.qstats[:len(e.activeIdx)]
	workers := e.stepWorkers(len(e.activeIdx))
	for len(e.scratch) < workers {
		e.scratch = append(e.scratch, sched.Scratch{})
	}
	execOne := func(worker, pos int) {
		if a := allots[pos]; a > 0 {
			s := &e.states[e.activeIdx[pos]]
			qstats[pos] = sched.RunQuantumScratch(s.spec.Inst, s.spec.Sched, a, cfg.L, &e.scratch[worker])
		}
	}
	if workers > 1 {
		parallel.ForEachShard(len(e.activeIdx), workers, execOne)
	} else {
		for pos := range e.activeIdx {
			execOne(0, pos)
		}
	}
	// Reduce phase, in job-index order.
	for pos, i := range e.activeIdx {
		s := &e.states[i]
		a := allots[pos]
		if cfg.Obs.Active() {
			cfg.Obs.Emit(obs.Event{Kind: obs.EvAllotment, Time: now,
				Quantum: e.res.Jobs[i].NumQuanta + 1, Job: i, Name: s.spec.Name,
				IntRequest: e.requests[pos], Allotment: a, Deprived: a < e.requests[pos]})
		}
		if a <= 0 {
			// No processors this quantum (|J| > P); the job stalls and
			// its request stands.
			if cfg.TimelineRing > 0 {
				e.recordSample(i, QuantumSample{
					Quantum: e.res.Jobs[i].NumQuanta + 1, Boundary: e.k, Time: now,
					Request: s.request, IntRequest: e.requests[pos],
					Deprived: true,
				})
			}
			continue
		}
		st := qstats[pos]
		st.Index = e.res.Jobs[i].NumQuanta + 1
		st.Start = now
		st.Request = s.request
		st.Deprived = a < e.requests[pos]
		s.last = st
		e.res.Jobs[i].NumQuanta++
		if st.Deprived {
			e.res.Jobs[i].DeprivedQ++
		}
		if cfg.KeepTrace {
			e.res.Jobs[i].Quanta = append(e.res.Jobs[i].Quanta, st)
		}
		if cfg.TimelineRing > 0 {
			e.recordSample(i, QuantumSample{
				Quantum: st.Index, Boundary: e.k, Time: now,
				Request: st.Request, IntRequest: e.requests[pos],
				Allotment: a, Steps: st.Steps, Work: st.Work,
				Parallelism: st.AvgParallelism(),
				Deprived:    st.Deprived, Completed: st.Completed,
			})
		}
		// The job holds its allotment until the boundary, so the whole
		// quantum's cycles are charged.
		waste := int64(a)*e.L64 - st.Work
		e.res.Jobs[i].Waste += waste
		e.res.TotalWaste += waste
		s.attemptWork += st.Work
		if cfg.Obs.Active() {
			emitQuantum(cfg.Obs, st, i, s.spec.Name, &s.deprived)
		}
		if !st.Completed && s.spec.Restart.fires(st.Index, e.res.Jobs[i].Restarts) {
			e.res.Jobs[i].Restarts++
			e.res.Jobs[i].LostWork += s.attemptWork
			if cfg.Obs.Active() {
				cfg.Obs.Emit(obs.Event{Kind: obs.EvJobRestarted,
					Time: now + int64(st.Steps), Quantum: st.Index,
					Job: i, Name: s.spec.Name, Work: s.attemptWork})
			}
			s.attemptWork = 0
			s.spec.Inst = s.spec.Restart.New()
			s.spec.Policy.Reset()
			s.request = s.spec.Policy.InitialRequest()
			continue
		}
		if st.Completed {
			e.completeJob(i, now+int64(st.Steps))
			info.Completed = append(info.Completed, i)
		} else {
			s.request = s.spec.Policy.NextRequest(st)
		}
	}
	e.k++
	info.QuantaElapsed = e.res.QuantaElapsed
	return info, nil
}

// completeJob marks job i done as of step t and emits its completion event.
func (e *Engine) completeJob(i int, t int64) {
	s := &e.states[i]
	s.done = true
	e.remaining--
	j := &e.res.Jobs[i]
	j.Completion = t
	j.Response = j.Completion - s.spec.Release
	if j.Completion > e.res.Makespan {
		e.res.Makespan = j.Completion
	}
	if e.cfg.Obs.Active() {
		e.cfg.Obs.Emit(obs.Event{Kind: obs.EvJobCompleted,
			Time: j.Completion, Job: i, Name: s.spec.Name,
			Work: j.Work, Response: j.Response})
	}
}

// Run steps the engine until every submitted job has completed and returns
// the result — RunMulti's tail. Jobs submitted while Run executes (from the
// same goroutine, e.g. via an obs subscriber) extend the run.
func (e *Engine) Run() (MultiResult, error) {
	for e.remaining > 0 {
		if _, err := e.Step(); err != nil {
			return e.Result(), err
		}
	}
	return e.Result(), nil
}

// Result returns a snapshot of the accumulated outcome. The Jobs slice is
// copied, so the snapshot stays stable while the engine keeps stepping.
func (e *Engine) Result() MultiResult {
	out := e.res
	out.Jobs = append([]JobOutcome(nil), e.res.Jobs...)
	return out
}

// JobStatus returns the live snapshot of one job; ok is false for an
// unknown id.
func (e *Engine) JobStatus(id int) (JobStatus, bool) {
	if id < 0 || id >= len(e.states) {
		return JobStatus{}, false
	}
	s := &e.states[id]
	j := &e.res.Jobs[id]
	st := JobStatus{
		ID:           id,
		Name:         j.Name,
		Release:      j.Release,
		Work:         j.Work,
		CriticalPath: j.CriticalPath,
		Request:      s.request,
		Allotment:    s.last.Allotment,
		Parallelism:  s.last.AvgParallelism(),
		Deprived:     s.last.Deprived,
		NumQuanta:    j.NumQuanta,
		DeprivedQ:    j.DeprivedQ,
		Restarts:     j.Restarts,
		LostWork:     j.LostWork,
		Waste:        j.Waste,
	}
	if s.started {
		st.IntRequest = RoundRequest(s.request)
	}
	switch {
	case s.done:
		st.State = JobDone
		st.Completion = j.Completion
		st.Response = j.Response
	case s.started:
		st.State = JobRunning
	default:
		st.State = JobPending
	}
	return st, true
}

// Statuses returns the live snapshot of every submitted job, in ascending
// id order (out[i].ID == i always). The returned slice is owned by the
// engine and reused by the next Statuses call, so a caller that serialises
// engine access (the documented contract) can poll it under load without
// per-call allocation; copy the elements before releasing the lock if they
// must outlive the next engine call.
func (e *Engine) Statuses() []JobStatus {
	if cap(e.statusBuf) < len(e.states) {
		e.statusBuf = make([]JobStatus, len(e.states))
	}
	out := e.statusBuf[:len(e.states)]
	for i := range e.states {
		out[i], _ = e.JobStatus(i)
	}
	return out
}
