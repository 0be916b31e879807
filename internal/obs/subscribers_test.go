package obs

import "testing"

func TestMetricsSubscriber(t *testing.T) {
	reg := NewRegistry()
	m := NewMetricsSubscriber(reg)
	bus := NewBus()
	defer bus.Subscribe(m)()

	bus.Emit(Event{Kind: EvJobAdmitted, Job: 0})
	bus.Emit(Event{Kind: EvRequest, Request: 3.2, IntRequest: 4})
	bus.Emit(Event{Kind: EvAllotment, IntRequest: 4, Allotment: 2, Deprived: true})
	bus.Emit(Event{Kind: EvQuantumEnd, Steps: 10, Work: 18, Waste: 2, Parallelism: 1.8, Deprived: true})
	bus.Emit(Event{Kind: EvDeprived})
	bus.Emit(Event{Kind: EvAllocDecision, P: 8, IntRequest: 4, Allotment: 2})
	bus.Emit(Event{Kind: EvSatisfied})
	bus.Emit(Event{Kind: EvQuantumEnd, Steps: 10, Work: 30, Waste: 0, Parallelism: 3})
	bus.Emit(Event{Kind: EvJobCompleted, Work: 48, Response: 20})

	expect := map[string]int64{
		"sim_quanta_total":                2,
		"sim_deprived_quanta_total":       1,
		"sim_deprived_transitions_total":  1,
		"sim_satisfied_transitions_total": 1,
		"sim_jobs_admitted_total":         1,
		"sim_jobs_completed_total":        1,
		"sim_jobs_active":                 0,
		"sim_requested_processors_total":  4,
		"sim_granted_processors_total":    2,
		"sim_work_cycles_total":           48,
		"sim_wasted_cycles_total":         2,
		"sim_alloc_rounds_total":          1,
	}
	snap := reg.Snapshot()
	for name, want := range expect {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
	if h := reg.Histogram("sim_job_response_steps", nil); h.Count() != 1 || h.Sum() != 20 {
		t.Errorf("response histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	if h := reg.Histogram("sim_quantum_parallelism", nil); h.Count() != 2 {
		t.Errorf("parallelism histogram count=%d", h.Count())
	}
}

func TestMetricsSubscriberDefaultRegistry(t *testing.T) {
	m := NewMetricsSubscriber(nil)
	if m.quanta != Default.Counter("sim_quanta_total") {
		t.Fatal("nil registry did not fall back to Default")
	}
}
