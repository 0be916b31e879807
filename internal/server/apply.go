package server

import (
	"errors"
	"fmt"

	"abg/internal/core"
	"abg/internal/fault"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/persist"
	"abg/internal/sim"
)

// The record applier. The daemon's state is a pure function of its journal
// records (see journal.go), so every record kind has exactly one handler
// that changes daemon state, and three paths drive those handlers:
//
//	leader    append the record (when journaling), then apply it
//	follower  append the shipped record verbatim, then apply it
//	boot      apply each recovered record
//
// Handlers take typed records, so a journal-less leader never encodes one.
// Boot adds a single rule (see bootHold): records before the journal's last
// snapshot do not step the engine, and that snapshot restores the engine
// over the jobs admitted so far; every later record applies exactly as on a
// follower. All handlers run with s.mu held.

// bootHold holds the engine back while boot recovery applies the records
// before the journal's last snapshot. Admitted jobs collect in specs instead
// of entering the engine, step records are skipped, and the last snapshot
// rebuilds the engine over specs. nil outside that window.
type bootHold struct {
	specs     []sim.JobSpec
	snapshots int // snapshot records still ahead; the last one restores
}

// applyRecord decodes one journal record and hands it to its kind's handler:
// the follower's and boot recovery's way in.
func (s *Server) applyRecord(rec persist.Record) error {
	if !s.headerSeen && rec.Kind != persist.KindHeader {
		return fmt.Errorf("journal does not start with a header record (%s)", persist.KindName(rec.Kind))
	}
	var err error
	switch rec.Kind {
	case persist.KindHeader:
		var h headerRecord
		if h, err = decodeHeader(rec.Body); err == nil {
			err = s.applyHeader(h)
		}
	case persist.KindSubmit:
		var sub submitRecord
		if sub, err = decodeSubmit(rec.Body); err == nil {
			_, err = s.applySubmit(sub, nil)
		}
	case persist.KindAdmit:
		var adm admitRecord
		if adm, err = decodeAdmit(rec.Body); err == nil {
			err = s.applyAdmit(adm)
		}
	case persist.KindStep:
		var st stepRecord
		if st, err = decodeStep(rec.Body); err == nil {
			err = s.applyStep(st)
		}
	case persist.KindDrain:
		s.applyDrain()
	case persist.KindEpoch:
		var ep epochRecord
		if ep, err = decodeEpoch(rec); err == nil {
			s.applyEpoch(ep)
		}
	case persist.KindSnapshot:
		var snap snapshotRecord
		if snap, err = decodeSnapshot(rec.Body); err == nil {
			err = s.applySnapshot(snap)
		}
	default:
		err = fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	if err == nil {
		s.applied++
	}
	return err
}

// applyHeader checks the configuration the journal was written under:
// applying its records under a different machine or scheduler would diverge
// silently.
func (s *Server) applyHeader(h headerRecord) error {
	if s.headerSeen {
		return errors.New("duplicate header record")
	}
	if want := s.headerRecord(); h != want {
		return fmt.Errorf("journal written under a different configuration:\n  journal: %+v\n  daemon:  %+v",
			h, want)
	}
	s.headerSeen = true
	return nil
}

// applySubmit queues one acked submission under its promised ids and
// records its idempotency key. profiles are the request's built job
// profiles; nil builds them here (the leader builds them before taking the
// lock, so generation never stalls the clock). Returns the ids.
func (s *Server) applySubmit(sub submitRecord, profiles []*job.Profile) ([]int, error) {
	if sub.firstID != s.nextID {
		return nil, fmt.Errorf("submit ids start at %d, expected %d", sub.firstID, s.nextID)
	}
	ids := make([]int, sub.count)
	for i := range ids {
		id := sub.firstID + i
		ids[i] = id
		var profile *job.Profile
		if profiles != nil {
			profile = profiles[i]
		} else {
			profile = sub.req.BuildProfile(i, s.cfg.L)
		}
		s.queue = append(s.queue, pendingJob{id: id, name: sub.req.jobName(i, id), profile: profile})
	}
	if sub.key != "" {
		s.keys[sub.key] = ids
	}
	s.nextID += sub.count
	return ids, nil
}

// applyAdmit brings the engine to the record's boundary and hands it every
// queued job, released at that boundary. The leader admits its whole queue
// at once, so the record's ids must be exactly the queue's, in order.
// Moving the engine first is a no-op for journals with step records (the
// engine already stands there); for journals without them it replays the
// quanta in between.
func (s *Server) applyAdmit(rec admitRecord) error {
	if len(rec.ids) != len(s.queue) {
		return fmt.Errorf("admit covers %d jobs, queue holds %d", len(rec.ids), len(s.queue))
	}
	for i, p := range s.queue {
		if rec.ids[i] != p.id {
			return fmt.Errorf("admit id %d out of order (queue holds %d)", rec.ids[i], p.id)
		}
	}
	if s.hold == nil {
		if b := s.eng.Boundary(); rec.boundary < b {
			return fmt.Errorf("admit at boundary %d, engine already at %d", rec.boundary, b)
		}
		if err := s.stepTo(rec.boundary); err != nil {
			return err
		}
	}
	release := int64(rec.boundary) * int64(s.cfg.L)
	for _, p := range s.queue {
		spec := buildSpec(s.plan, s.sched, s.bus, p, release)
		var id int
		if s.hold != nil {
			id = len(s.hold.specs)
			s.hold.specs = append(s.hold.specs, spec)
		} else {
			var err error
			if id, err = s.eng.Submit(spec); err != nil {
				return fmt.Errorf("admit job %d: %w", p.id, err)
			}
		}
		if id != p.id {
			return fmt.Errorf("job id skew: engine assigned %d, promised %d", id, p.id)
		}
	}
	s.queue = s.queue[:0]
	return nil
}

// applyStep executes the recorded quantum: pin its cluster share, if any,
// then step the engine through the recorded boundary. Idle boundaries the
// leader did not journal replay here as idle steps on the way.
func (s *Server) applyStep(rec stepRecord) error {
	if s.hold != nil {
		return nil // the snapshot ahead already holds this quantum's effect
	}
	if b := s.eng.Boundary(); rec.boundary < b {
		return fmt.Errorf("step boundary %d behind the engine's %d", rec.boundary, b)
	}
	t, shared := s.capacity.(*ShareTable)
	if rec.share >= 0 {
		// A cluster shard's record: the quantum must run under the share the
		// cluster pinned for it, or the replay diverges.
		if !shared {
			return errors.New("journal carries cluster capacity shares; boot it behind the cluster layer (abgd -cluster)")
		}
		t.Set(rec.boundary+1, rec.share)
	}
	if err := s.stepTo(rec.boundary + 1); err != nil {
		return err
	}
	if shared {
		// Executed quanta can never be re-read; keep the table bounded.
		t.PruneBelow(s.eng.Boundary())
	}
	return nil
}

// stepTo advances the engine until its next boundary is b.
func (s *Server) stepTo(b int) error {
	for s.eng.Boundary() < b {
		if _, err := s.eng.Step(); err != nil {
			return fmt.Errorf("step boundary %d: %w", s.eng.Boundary(), err)
		}
	}
	return nil
}

// applyDrain closes admission; a journaled drain survives a crash.
func (s *Server) applyDrain() { s.draining.Store(true) }

// applyEpoch serves under a new leadership term. The journal's own epoch
// follows the record framing, so only the served epoch changes here.
func (s *Server) applyEpoch(rec epochRecord) {
	s.epoch.Store(rec.epoch)
	s.log.Info("leadership change", "epoch", rec.epoch, "leader", rec.leader,
		"boundary", s.eng.Boundary())
}

// applySnapshot checks a snapshot against the engine: whoever applies the
// record already holds that state by construction, so its coordinates must
// match exactly — a cheap, continuous proof that a replica has not
// diverged. At boot the journal's last snapshot restores the engine instead
// (restoreSnapshot), and earlier ones are superseded by it.
func (s *Server) applySnapshot(rec snapshotRecord) error {
	if s.hold != nil {
		if s.hold.snapshots--; s.hold.snapshots > 0 {
			return nil
		}
		return s.restoreSnapshot(rec)
	}
	if rec.boundary != s.eng.Boundary() || rec.quanta != s.eng.QuantaElapsed() {
		return fmt.Errorf("diverged: snapshot at boundary %d quanta %d, engine at %d/%d",
			rec.boundary, rec.quanta, s.eng.Boundary(), s.eng.QuantaElapsed())
	}
	if seq := s.hub.Seq(); rec.sseSeq != seq {
		return fmt.Errorf("diverged: snapshot SSE seq %d, daemon at %d", rec.sseSeq, seq)
	}
	s.lastSnapQ = rec.quanta
	s.lastSnapSeq = rec.sseSeq
	s.snapshotCount++
	s.metrics.snapshots.Inc()
	return nil
}

// restoreSnapshot rebuilds the engine from the journal's last snapshot over
// the jobs admitted before it, and releases the boot hold.
func (s *Server) restoreSnapshot(rec snapshotRecord) error {
	eng, err := sim.RestoreEngine(s.engineConfig(), rec.engine, s.hold.specs)
	if err != nil {
		return err
	}
	s.hold = nil
	s.eng = eng
	s.hub.SetSeq(0, rec.sseSeq)
	s.lastSnapQ = rec.quanta
	s.lastSnapSeq = rec.sseSeq
	s.recovery.SnapshotQuantum = rec.quanta
	s.recovery.SnapshotBoundary = rec.boundary
	// The invariant checker never saw the pre-snapshot events, so the
	// restored jobs' deprivation and attempt-work accounting must be
	// seeded, not inferred.
	if s.checker != nil {
		for id, rs := range s.eng.ResumeStates() {
			if rs.Started && !rs.Done {
				s.checker.Resume(id, rs.Deprived, rs.AttemptWork)
			}
		}
	}
	return nil
}

// buildSpec builds the engine-facing spec for one job: a fresh instance and
// policy, the control channel wrapped by the fault plan, and the plan's
// restart schedule (rebuilding restarted attempts from the same profile).
func buildSpec(plan fault.Plan, scheduler core.Scheduler, bus *obs.Bus, p pendingJob, release int64) sim.JobSpec {
	spec := sim.JobSpec{
		Name:    p.name,
		Inst:    job.NewRun(p.profile),
		Policy:  plan.Policy(scheduler.NewPolicy(), p.id, bus),
		Sched:   scheduler.TaskScheduler(),
		Release: release,
	}
	if at := plan.RestartHook(p.id); at != nil {
		profile := p.profile
		spec.Restart = &sim.RestartPlan{
			At:  at,
			New: func() job.Instance { return job.NewRun(profile) },
			Max: plan.MaxRestarts,
		}
	}
	return spec
}
