package server

import (
	"fmt"

	"abg/internal/obs"
	"abg/internal/sim"
)

// External drive. The cluster layer (internal/cluster) embeds N Servers as
// engine shards behind one front door. A shard is never Start()ed — it binds
// no listener and runs no driver goroutine; instead the cluster's Clock
// steps every shard in lockstep rounds, from a single goroutine:
//
//	for each round:
//	  desire[k] = shard[k].AggregateDesire()        (serial)
//	  share[k]  = clusterAllocator(desire, totalP)
//	  shard[k].SetShare(share[k])                   (serial)
//	  shard[k].Step(idleOK)                         (parallel across shards)
//
// Everything else a shard owns — journaling, snapshots, recovery, its event
// sequence numbers, idempotency dedup, per-shard metrics — works unchanged,
// because Step is the very tick a daemon's own clock runs.

// NeedsSteps reports whether the server still has work the clock must step:
// unfinished jobs or queued admissions, and no fatal error (a wedged shard
// cannot make progress; stepping it forever would hang the cluster's drain).
func (s *Server) NeedsSteps() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fatal == nil && (!s.eng.Done() || len(s.queue) > 0)
}

// AggregateDesire is the shard's second-level processor request: the sum of
// its unfinished jobs' current integer requests (sim.Engine.AggregateRequest)
// plus one processor per queued job, so a shard whose work is still in the
// admission queue is not starved of the capacity it needs to start it.
func (s *Server) AggregateDesire() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.AggregateRequest() + len(s.queue)
}

// SetShare pins the cluster-assigned capacity share for the quantum the next
// Step will execute. No-op unless the shard was built with a
// ShareTable capacity override (Config.Capacity).
func (s *Server) SetShare(share int) {
	t, ok := s.capacity.(*ShareTable)
	if !ok {
		return
	}
	s.mu.Lock()
	t.Set(s.eng.Boundary()+1, share)
	s.mu.Unlock()
}

// DrainEngine flushes any straggler admissions and closes engine admission.
// A clock's Finish calls it on every server before the closing steps so
// that snapshots written during those steps record the engine as draining —
// which keeps a one-shard cluster's journal byte-identical to a daemon's.
func (s *Server) DrainEngine() {
	s.mu.Lock()
	if s.fatal == nil {
		s.admitLocked()
	}
	if s.fatal == nil {
		s.eng.Drain()
	}
	s.mu.Unlock()
}

// FinishExternal completes a drain once the clock has stepped the server
// until NeedsSteps is false: sync and close the journal, and release the
// SSE clients, the metrics subscription and the lifecycle channels. Returns
// the verdict the way Wait does: the first fatal error, or the invariant
// checker's, or nil.
func (s *Server) FinishExternal() error {
	s.mu.Lock()
	if s.fatal == nil && s.journal != nil {
		if err := s.journal.Sync(); err != nil {
			// A torn final flush must not masquerade as a clean shutdown:
			// record it as the fatal error so /healthz reports failing and
			// Wait — hence the process exit code — surfaces it.
			s.failLocked(fmt.Errorf("journal sync at drain: %w", err))
		}
	}
	s.mu.Unlock()
	s.log.Info("drain complete", "jobs", s.completedJobs())
	s.finish()
	return s.verdict()
}

// finish releases what a finished server holds: the journal, the SSE
// clients, the metrics subscription, and the lifecycle channels.
func (s *Server) finish() {
	s.mu.Lock()
	if s.journal != nil {
		_ = s.journal.Close()
	}
	s.mu.Unlock()
	s.hub.Close()
	s.unsubMetrics()
	s.closeDrained()
	s.closeStopped()
}

// verdict is the server's final outcome: the first fatal error, else the
// invariant checker's, else nil.
func (s *Server) verdict() error {
	err := s.Fatal()
	if err == nil && s.checker != nil {
		err = s.checker.Err()
	}
	return err
}

// Kill simulates SIGKILL for crash-recovery tests: the driver (if one is
// running) stops dead without draining, and the journal file handle is
// released without a final sync — exactly the state a killed process leaves
// on disk, since every append already went straight to the file.
func (s *Server) Kill() {
	s.killed.Store(true)
	s.notify()
	s.mu.Lock()
	if s.journal != nil {
		_ = s.journal.Close()
	}
	s.mu.Unlock()
}

// Fatal returns the shard's first fatal error, if any.
func (s *Server) Fatal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fatal
}

// QueueDepth returns the admission queue's current depth.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Load is the router's load signal: queued plus admitted-but-unfinished jobs.
func (s *Server) Load() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) + s.eng.Remaining()
}

// JobStatuses returns every job's status — engine-held jobs in ascending id
// order, then still-queued ones (the GET /api/v1/jobs body).
func (s *Server) JobStatuses() []JobStatusDTO {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The engine owns the Statuses buffer and reuses it across calls, so
	// the DTO conversion must happen before the lock is released — another
	// caller's Statuses would overwrite it.
	sts := s.eng.Statuses()
	out := make([]JobStatusDTO, 0, len(sts)+len(s.queue))
	for _, st := range sts {
		out = append(out, statusDTO(st))
	}
	for _, p := range s.queue {
		out = append(out, p.status())
	}
	return out
}

// JobTimeline returns a job's quantum-timeline DTO (the
// GET /api/v1/jobs/{id}/timeline body), or false for an unknown job.
func (s *Server) JobTimeline(id int) (TimelineDTO, bool) {
	s.mu.Lock()
	samples, evicted, known := s.eng.Timeline(id)
	st, _ := s.eng.JobStatus(id)
	s.mu.Unlock()
	if !known {
		dto, ok := s.LookupJob(id)
		if !ok {
			return TimelineDTO{}, false
		}
		return TimelineDTO{
			ID: id, Name: dto.Name, State: dto.State,
			Ring: s.cfg.TimelineRing, Samples: []sim.QuantumSample{},
		}, true
	}
	if samples == nil {
		samples = []sim.QuantumSample{}
	}
	return TimelineDTO{
		ID: id, Name: st.Name, State: st.State.String(),
		Ring: s.cfg.TimelineRing, Evicted: evicted, Samples: samples,
	}, true
}

// TraceByID returns a registered request trace.
func (s *Server) TraceByID(id string) (TraceDTO, bool) { return s.traces.get(id) }

// IdemKeys returns a copy of the idempotency-key table (key → promised ids).
// The cluster front end rebuilds its key → shard routing from this at boot,
// so a recovered cluster keeps deduplicating retries of pre-crash acks.
func (s *Server) IdemKeys() map[string][]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]int, len(s.keys))
	for k, ids := range s.keys {
		out[k] = append([]int(nil), ids...)
	}
	return out
}

// SSESeq returns the id of the shard's most recently published SSE event.
func (s *Server) SSESeq() uint64 { return s.hub.Seq() }

// Recovery returns the boot-time recovery report.
func (s *Server) Recovery() RecoveryDTO {
	s.mu.Lock()
	defer s.mu.Unlock()
	dto := s.recovery
	dto.Snapshots = s.snapshotCount
	dto.LastSnapshotQuantum = s.lastSnapQ
	return dto
}

// MetricsRegistry returns the shard's metric registry: the cluster's
// /metrics renders every shard's registry under a shard label
// (promexport.WriteSets), after SampleMetrics refreshes its gauges.
func (s *Server) MetricsRegistry() *obs.Registry { return s.metrics.reg }
