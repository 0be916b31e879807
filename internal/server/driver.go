package server

import (
	"context"
	"fmt"
	"time"

	"abg/internal/persist"
)

// Clock is the quantum clock: the single goroutine that advances a daemon's
// engine, or a cluster's shards in lockstep rounds. All engine mutation
// happens on it (and in the admission step it performs), serialised with
// the HTTP handlers by each Server's mutex.
//
// Wall mode executes one quantum boundary per Tick of real time — idle
// boundaries advance simulated time just like busy ones, so sim time tracks
// wall time. Virtual mode fast-forwards: it steps back-to-back while there
// is work and parks (no time passes) while the system is empty, which is
// what load tests and CI smokes want.
//
// Cancelling the context passed to Run — the SIGTERM path — calls Drain;
// once Stop reports true the loop ends, and Finish runs every accepted job
// to completion regardless of clock mode.
type Clock struct {
	Mode ClockMode
	Tick time.Duration
	// Servers are the daemons Step advances: one, or a cluster's shards.
	Servers []*Server
	// Step executes one quantum boundary on every server. idleOK selects
	// whether an empty server still consumes the boundary (wall clock: yes,
	// time passes; virtual clock: no).
	Step func(idleOK bool)
	// Stop reports that the loop must end: draining, failed, or killed.
	Stop func() bool
	// Drain initiates a graceful drain when the run context is cancelled.
	Drain func()
	// Wake makes a parked loop re-check Stop and, in virtual mode, whether
	// there is work. In wall mode admission still waits for the boundary.
	Wake <-chan struct{}
}

// Run paces quantum boundaries until Stop reports true.
func (c *Clock) Run(ctx context.Context) {
	var tick <-chan time.Time // nil in virtual mode: never fires
	if c.Mode == ClockWall {
		t := time.NewTicker(c.Tick)
		defer t.Stop()
		tick = t.C
	}
	for !c.Stop() {
		if c.Mode != ClockWall && c.busy() {
			c.Step(false)
			continue
		}
		select {
		case <-ctx.Done():
			c.Drain()
		case <-tick:
			c.Step(true)
		case <-c.Wake:
		}
	}
}

// busy reports whether any server still has steppable work.
func (c *Clock) busy() bool {
	for _, s := range c.Servers {
		if s.NeedsSteps() {
			return true
		}
	}
	return false
}

// Finish completes a drain: close every engine's admission (so snapshots
// written while finishing record the engine as draining), step until no
// server has work left, then sync and close each server (FinishExternal).
// Admission is already closed, so no queue can grow. It returns the first
// server's failure, naming the failed shard.
func (c *Clock) Finish() error {
	for _, s := range c.Servers {
		s.DrainEngine()
	}
	for c.busy() {
		c.Step(false)
	}
	var first error
	for k, s := range c.Servers {
		if err := s.FinishExternal(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return first
}

// drive runs the daemon's quantum clock, then its drain. The drained
// channel closes last, releasing Server.Wait and any /api/v1/drain?wait=1
// callers; nothing here touches the engine after that.
func (s *Server) drive(ctx context.Context) {
	defer s.closeStopped()
	clock := &Clock{
		Mode: s.cfg.Clock, Tick: s.cfg.Tick, Servers: []*Server{s},
		Step: s.Step, Drain: s.Drain, Wake: s.wake,
		Stop: func() bool { return s.killed.Load() || s.draining.Load() },
	}
	clock.Run(ctx)
	if s.killed.Load() {
		// Crash simulation (tests only): stop dead, no drain, no final
		// journal flush — exactly what SIGKILL leaves behind.
		return
	}
	_ = clock.Finish() // Wait reports the verdict
}

// completedJobs returns the number of jobs the engine has completed.
func (s *Server) completedJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.NumJobs() - s.eng.Remaining()
}

// Step admits everything queued at the current boundary and advances the
// engine one quantum — one tick of the quantum clock. idleOK selects whether
// an empty system still consumes a boundary (wall clock: yes, time passes;
// virtual clock: no). Concurrent Steps on different servers are safe (a
// cluster steps its shards in parallel); one server must only ever be
// stepped by one goroutine at a time.
func (s *Server) Step(idleOK bool) {
	s.mu.Lock()
	s.stepLocked(idleOK)
	s.mu.Unlock()
}

// stepLocked is the leader's half of the applier for one boundary: admit
// the queue, then journal and apply the step. Idle boundaries — every job
// done, nothing queued — are not journaled: they do no work, emit no
// events, and journaling each wall tick of an idle daemon would grow the
// journal without bound. Working boundaries hit the journal before the
// engine runs them, so a follower (or a reference replay) re-executes
// exactly the quanta the leader executed.
func (s *Server) stepLocked(idleOK bool) {
	if s.fatal != nil {
		return
	}
	s.admitLocked()
	if s.fatal != nil || (!idleOK && s.eng.Done()) {
		return
	}
	rec := stepRecord{boundary: s.eng.Boundary(), share: -1}
	// In cluster mode the quantum about to execute runs under the share the
	// cluster allocator pinned for it; the record must carry it so this
	// shard's recovery replays under the same capacity (see stepRecord).
	if t, ok := s.capacity.(*ShareTable); ok {
		if share, pinned := t.ShareAt(rec.boundary + 1); pinned {
			rec.share = share
		}
	}
	if s.journal != nil && !s.eng.Done() && s.appendJournal(persist.KindStep, encodeStep(rec)) != nil {
		return // fatal; failLocked already fired
	}
	if err := s.applyStep(rec); err != nil {
		s.failLocked(err)
		return
	}
	s.maybeSnapshotLocked()
}

// admitLocked hands every queued job to the engine at the current boundary.
// The admit record is journaled before the engine sees the jobs: events for
// this boundary only flow once the step runs, so a crash anywhere in
// between recovers to "admitted at this boundary" without ever having
// exposed observable state that the replay would contradict.
func (s *Server) admitLocked() {
	if len(s.queue) == 0 {
		return
	}
	rec := admitRecord{boundary: s.eng.Boundary(), ids: make([]int, len(s.queue))}
	for i, p := range s.queue {
		rec.ids[i] = p.id
	}
	if s.journal != nil && s.appendJournal(persist.KindAdmit, encodeAdmit(rec)) != nil {
		return // fatal; failLocked already fired
	}
	if err := s.applyAdmit(rec); err != nil {
		s.failLocked(err)
	}
}

// maybeSnapshotLocked writes an engine snapshot once enough quanta have
// executed since the last one. The record carries the SSE sequence counter
// captured at the same instant, so a recovered daemon numbers the replayed
// event stream identically. Caller holds s.mu, on the driver goroutine.
func (s *Server) maybeSnapshotLocked() {
	if s.journal == nil || s.fatal != nil {
		return
	}
	q := s.eng.QuantaElapsed()
	if q-s.lastSnapQ < s.cfg.SnapshotEvery {
		return
	}
	if s.eng.Done() && len(s.queue) == 0 && s.hub.Seq() == s.lastSnapSeq {
		// Idle wall-clock boundaries change nothing a recovery would replay;
		// snapshotting them would grow the journal without bound.
		return
	}
	blob, err := s.eng.MarshalBinary()
	if err != nil {
		s.failLocked(fmt.Errorf("snapshot: %w", err))
		return
	}
	rec := snapshotRecord{
		boundary: s.eng.Boundary(), quanta: q,
		sseSeq: s.hub.Seq(), engine: blob,
	}
	if s.appendJournal(persist.KindSnapshot, encodeSnapshot(rec)) != nil {
		return
	}
	if err := s.applySnapshot(rec); err != nil {
		s.failLocked(err)
	}
}

// failLocked records the first fatal engine error and forces a drain so the
// daemon shuts down instead of serving a wedged scheduler. Caller holds s.mu.
func (s *Server) failLocked(err error) {
	if s.fatal == nil {
		s.fatal = err
		s.log.Error("engine failed", "err", err)
	}
	s.draining.Store(true)
	s.notify()
}
