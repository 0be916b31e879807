package sim

import (
	"bytes"
	"fmt"

	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/persist"
	"abg/internal/sched"
)

// Engine snapshots: a versioned binary encoding of the engine's complete
// mutable state — quantum counters, per-job outcomes, DAG execution
// cursors, and controller state — so a crashed service can restore to a
// recent boundary and replay only the journal tail.
//
// A snapshot deliberately contains no job *descriptions* and no
// configuration: the restoring side rebuilds the same JobSpecs (profiles,
// policies, restart hooks) from its journaled workload records, then
// Restore loads the cursors onto them. Because the engine is
// bit-identically replay-deterministic, a restored engine continues exactly
// as the original would have — the recovery tests assert DeepEqual against
// an uninterrupted run.

// snapshot format: magic, version byte, then the field stream below.
var snapMagic = []byte("ABGSNAP")

const snapVersion byte = 1

// MarshalBinary encodes the engine's mutable state. It fails when the
// engine records per-quantum traces (KeepTrace) — snapshots do not carry
// traces — or when a job's instance or policy does not support state
// capture.
func (e *Engine) MarshalBinary() ([]byte, error) {
	if e.cfg.KeepTrace {
		return nil, fmt.Errorf("sim: snapshot does not support KeepTrace engines")
	}
	enc := persist.Enc{}
	enc.Int(e.k)
	enc.Int(e.capNow)
	enc.Bool(e.draining)
	enc.Int(e.remaining)
	enc.Varint(e.res.Makespan)
	enc.Varint(e.res.TotalWaste)
	enc.Int(e.res.QuantaElapsed)
	enc.Int(len(e.states))
	for i := range e.states {
		s := &e.states[i]
		j := &e.res.Jobs[i]
		enc.String(j.Name)
		enc.Varint(j.Release)
		enc.Varint(j.Completion)
		enc.Varint(j.Response)
		enc.Varint(j.Work)
		enc.Int(j.CriticalPath)
		enc.Varint(j.Waste)
		enc.Int(j.NumQuanta)
		enc.Int(j.DeprivedQ)
		enc.Int(j.Restarts)
		enc.Varint(j.LostWork)

		enc.Float(s.request)
		enc.Bool(s.started)
		enc.Bool(s.done)
		enc.Bool(s.deprived)
		enc.Varint(s.attemptWork)
		encodeQuantumStats(&enc, s.last)

		st, ok := s.spec.Inst.(job.Stateful)
		if !ok {
			return nil, fmt.Errorf("sim: job %d instance %T does not support state snapshots", i, s.spec.Inst)
		}
		inst, err := st.MarshalState()
		if err != nil {
			return nil, fmt.Errorf("sim: job %d instance: %w", i, err)
		}
		enc.BytesField(inst)
		pol, err := feedback.MarshalState(s.spec.Policy)
		if err != nil {
			return nil, fmt.Errorf("sim: job %d: %w", i, err)
		}
		enc.BytesField(pol)
	}
	out := append([]byte{}, snapMagic...)
	out = append(out, snapVersion)
	return append(out, enc.Bytes()...), nil
}

// RestoreEngine rebuilds an engine from a snapshot. specs must contain one
// freshly built JobSpec per snapshotted job, in job-id order, describing
// the *same* jobs (same profile, same policy configuration, same restart
// hook) — total work and critical path are cross-checked. Each spec's
// instance and policy receive the snapshotted cursor and controller state;
// spec.Release is overwritten from the snapshot.
func RestoreEngine(cfg MultiConfig, data []byte, specs []JobSpec) (*Engine, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+1 || !bytes.Equal(data[:len(snapMagic)], snapMagic) {
		return nil, fmt.Errorf("sim: not an engine snapshot (%d bytes)", len(data))
	}
	if v := data[len(snapMagic)]; v != snapVersion {
		return nil, fmt.Errorf("sim: snapshot version %d, this build reads %d", v, snapVersion)
	}
	d := persist.NewDec(data[len(snapMagic)+1:])
	e.k = d.Int()
	e.capNow = d.Int()
	e.draining = d.Bool()
	remaining := d.Int()
	e.res.Makespan = d.Varint()
	e.res.TotalWaste = d.Varint()
	e.res.QuantaElapsed = d.Int()
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("sim: snapshot header: %w", err)
	}
	if n != len(specs) {
		return nil, fmt.Errorf("sim: snapshot holds %d jobs, caller rebuilt %d specs", n, len(specs))
	}
	unfinished := 0
	for i := 0; i < n; i++ {
		if specs[i].Inst == nil || specs[i].Policy == nil {
			return nil, fmt.Errorf("sim: rebuilt spec %d missing instance or policy", i)
		}
		sp := specs[i]
		var j JobOutcome
		j.Name = d.String()
		j.Release = d.Varint()
		j.Completion = d.Varint()
		j.Response = d.Varint()
		j.Work = d.Varint()
		j.CriticalPath = d.Int()
		j.Waste = d.Varint()
		j.NumQuanta = d.Int()
		j.DeprivedQ = d.Int()
		j.Restarts = d.Int()
		j.LostWork = d.Varint()

		var s jobState
		s.request = d.Float()
		s.started = d.Bool()
		s.done = d.Bool()
		s.deprived = d.Bool()
		s.attemptWork = d.Varint()
		s.last = decodeQuantumStats(d)
		instState := d.BytesField()
		polState := d.BytesField()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("sim: snapshot job %d: %w", i, err)
		}

		// A restarted job's live instance is a fresh attempt of the same
		// profile, so work and critical path still match the description.
		if w := sp.Inst.TotalWork(); w != j.Work {
			return nil, fmt.Errorf("sim: job %d rebuilt with work %d, snapshot has %d (wrong workload?)", i, w, j.Work)
		}
		if c := sp.Inst.CriticalPathLen(); c != j.CriticalPath {
			return nil, fmt.Errorf("sim: job %d rebuilt with critical path %d, snapshot has %d", i, c, j.CriticalPath)
		}
		st, ok := sp.Inst.(job.Stateful)
		if !ok {
			return nil, fmt.Errorf("sim: job %d instance %T does not support state snapshots", i, sp.Inst)
		}
		if err := st.UnmarshalState(instState); err != nil {
			return nil, fmt.Errorf("sim: job %d instance: %w", i, err)
		}
		if err := feedback.UnmarshalState(sp.Policy, polState); err != nil {
			return nil, fmt.Errorf("sim: job %d: %w", i, err)
		}
		sp.Release = j.Release
		s.spec = &sp
		e.states = append(e.states, s)
		e.res.Jobs = append(e.res.Jobs, j)
		if !s.done {
			unfinished++
		}
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("sim: snapshot has %d trailing bytes", d.Len())
	}
	if unfinished != remaining {
		return nil, fmt.Errorf("sim: snapshot remaining %d != %d unfinished jobs", remaining, unfinished)
	}
	e.remaining = remaining
	return e, nil
}

// encodeQuantumStats appends every QuantumStats field.
func encodeQuantumStats(e *persist.Enc, st sched.QuantumStats) {
	e.Int(st.Index)
	e.Varint(st.Start)
	e.Float(st.Request)
	e.Int(st.Allotment)
	e.Int(st.Length)
	e.Int(st.Steps)
	e.Varint(st.Work)
	e.Float(st.CPL)
	e.Int(st.IdleSteps)
	e.Int(st.PartialSteps)
	e.Int(st.LevelsTouched)
	e.Bool(st.Deprived)
	e.Bool(st.Completed)
}

// decodeQuantumStats reads what encodeQuantumStats wrote.
func decodeQuantumStats(d *persist.Dec) sched.QuantumStats {
	return sched.QuantumStats{
		Index:         d.Int(),
		Start:         d.Varint(),
		Request:       d.Float(),
		Allotment:     d.Int(),
		Length:        d.Int(),
		Steps:         d.Int(),
		Work:          d.Varint(),
		CPL:           d.Float(),
		IdleSteps:     d.Int(),
		PartialSteps:  d.Int(),
		LevelsTouched: d.Int(),
		Deprived:      d.Bool(),
		Completed:     d.Bool(),
	}
}

// ResumeState is the mid-run, per-job state a recovering service needs to
// re-prime run-scoped subscribers (e.g. the invariant checker's deprivation
// and work-conservation accounting) after restoring an engine whose earlier
// events they never saw.
type ResumeState struct {
	// Started and Done classify the job's lifecycle stage.
	Started, Done bool
	// Deprived is the job's current deprivation state (the transition
	// tracker, not just the last quantum's flag).
	Deprived bool
	// AttemptWork is the work executed since the job's last (re)start.
	AttemptWork int64
}

// ResumeStates returns the per-job resume state, by job id.
func (e *Engine) ResumeStates() []ResumeState {
	out := make([]ResumeState, len(e.states))
	for i := range e.states {
		s := &e.states[i]
		out[i] = ResumeState{
			Started:     s.started,
			Done:        s.done,
			Deprived:    s.deprived,
			AttemptWork: s.attemptWork,
		}
	}
	return out
}
