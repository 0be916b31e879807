package obs

// MetricsSubscriber folds bus events into a Registry: totals for quanta,
// jobs, requested/granted processors and wasted cycles, plus fixed-bucket
// histograms of per-quantum parallelism and waste and of per-job response
// time. All underlying metrics are atomic, so one subscriber may serve
// many concurrently running simulations (the sweep runners do exactly
// that).
//
// Metric names are stable API, documented in README.md's Observability
// section.
type MetricsSubscriber struct {
	quanta        *Counter
	deprivedQ     *Counter
	intoDeprived  *Counter
	intoSatisfied *Counter
	jobsAdmitted  *Counter
	jobsCompleted *Counter
	jobsActive    *Gauge
	requested     *Counter
	granted       *Counter
	workCycles    *Counter
	wastedCycles  *Counter
	allocRounds   *Counter
	faults        *Counter
	capChanges    *Counter
	restarts      *Counter
	lostWork      *Counter
	warnings      *Counter
	parallelism   *Histogram
	waste         *Histogram
	response      *Histogram
}

// NewMetricsSubscriber registers the simulation metrics in reg (the Default
// registry when nil) and returns the subscriber feeding them.
func NewMetricsSubscriber(reg *Registry) *MetricsSubscriber {
	if reg == nil {
		reg = Default
	}
	return &MetricsSubscriber{
		quanta:        reg.Counter("sim_quanta_total"),
		deprivedQ:     reg.Counter("sim_deprived_quanta_total"),
		intoDeprived:  reg.Counter("sim_deprived_transitions_total"),
		intoSatisfied: reg.Counter("sim_satisfied_transitions_total"),
		jobsAdmitted:  reg.Counter("sim_jobs_admitted_total"),
		jobsCompleted: reg.Counter("sim_jobs_completed_total"),
		jobsActive:    reg.Gauge("sim_jobs_active"),
		requested:     reg.Counter("sim_requested_processors_total"),
		granted:       reg.Counter("sim_granted_processors_total"),
		workCycles:    reg.Counter("sim_work_cycles_total"),
		wastedCycles:  reg.Counter("sim_wasted_cycles_total"),
		allocRounds:   reg.Counter("sim_alloc_rounds_total"),
		faults:        reg.Counter("fault_injected_total"),
		capChanges:    reg.Counter("fault_capacity_changes_total"),
		restarts:      reg.Counter("fault_job_restarts_total"),
		lostWork:      reg.Counter("fault_lost_work_cycles_total"),
		warnings:      reg.Counter("fault_warnings_total"),
		parallelism:   reg.Histogram("sim_quantum_parallelism", ExponentialBuckets(1, 2, 11)),
		waste:         reg.Histogram("sim_quantum_waste", ExponentialBuckets(1, 4, 12)),
		response:      reg.Histogram("sim_job_response_steps", ExponentialBuckets(1000, 2, 16)),
	}
}

// OnEvent implements Subscriber.
func (m *MetricsSubscriber) OnEvent(e Event) {
	switch e.Kind {
	case EvQuantumEnd:
		m.quanta.Inc()
		if e.Deprived {
			m.deprivedQ.Inc()
		}
		m.workCycles.Add(e.Work)
		m.wastedCycles.Add(e.Waste)
		m.parallelism.Observe(e.Parallelism)
		m.waste.Observe(float64(e.Waste))
	case EvAllotment:
		m.requested.Add(int64(e.IntRequest))
		m.granted.Add(int64(e.Allotment))
	case EvJobAdmitted:
		m.jobsAdmitted.Inc()
		m.jobsActive.Add(1)
	case EvJobCompleted:
		m.jobsCompleted.Inc()
		m.jobsActive.Add(-1)
		m.response.Observe(float64(e.Response))
	case EvDeprived:
		m.intoDeprived.Inc()
	case EvSatisfied:
		m.intoSatisfied.Inc()
	case EvAllocDecision:
		m.allocRounds.Inc()
	case EvFault:
		m.faults.Inc()
	case EvCapacity:
		m.capChanges.Inc()
	case EvJobRestarted:
		m.restarts.Inc()
		m.lostWork.Add(e.Work)
	case EvWarning:
		m.warnings.Inc()
	}
}
