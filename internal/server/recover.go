package server

import (
	"fmt"
	"math"
	"net/http"
	"path/filepath"

	"abg/internal/alloc"
	"abg/internal/core"
	"abg/internal/fault"
	"abg/internal/persist"
	"abg/internal/sim"
)

// Crash recovery. The journal records every externally-sourced decision
// (see journal.go) and the engine is bit-identically replay-deterministic,
// so recovery applies the journal's records through the same handlers the
// leader and its followers use (apply.go), with one rule of its own: the
// engine is held back until the last snapshot restores it, and the records
// after that snapshot re-execute their quanta (re-emitting the same events
// under the same SSE ids). Acked-but-unadmitted submissions stay queued.
// The daemon then resumes as if the crash were a pause: same job ids, same
// completion times, same event stream.

// RecoveryDTO is served at /api/v1/recovery: what the boot-time recovery
// found and did, plus the live snapshot counters.
type RecoveryDTO struct {
	// Recovered reports that the daemon restored state from a non-empty
	// journal (false on a fresh journal or without -journal).
	Recovered bool `json:"recovered"`
	// JournalPath is the journal file in use, empty when persistence is off.
	JournalPath string `json:"journalPath,omitempty"`
	// Records is the number of clean records scanned at boot.
	Records int `json:"records"`
	// TruncatedBytes is the length of the torn tail discarded at boot.
	TruncatedBytes int64 `json:"truncatedBytes"`
	// SnapshotQuantum and SnapshotBoundary locate the restored snapshot
	// (zero when recovery replayed from the journal's beginning).
	SnapshotQuantum  int `json:"snapshotQuantum"`
	SnapshotBoundary int `json:"snapshotBoundary"`
	// ReplayedRecords counts the journal records applied after the restored
	// snapshot; ReplayedBoundaries the engine steps re-executed from them.
	ReplayedRecords    int `json:"replayedRecords"`
	ReplayedBoundaries int `json:"replayedBoundaries"`
	// ResumedJobs is the number of jobs live in the restored engine;
	// RequeuedJobs the acked submissions put back on the admission queue.
	ResumedJobs  int `json:"resumedJobs"`
	RequeuedJobs int `json:"requeuedJobs"`
	// Snapshots and LastSnapshotQuantum track snapshot writes since boot.
	Snapshots           int `json:"snapshots"`
	LastSnapshotQuantum int `json:"lastSnapshotQuantum"`
}

func (s *Server) handleRecovery(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.Recovery())
}

// openJournal opens (or creates) the journal, truncates any torn tail, and
// recovers the daemon's state from the clean records. Called from New
// before the daemon starts serving; everything here is single-threaded.
func (s *Server) openJournal() error {
	policy, _ := persist.ParseSyncPolicy(s.cfg.Fsync) // validated in normalize
	j, scan, err := persist.Open(s.cfg.JournalDir, policy)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.journal = j
	s.recovery.JournalPath = j.Path()
	s.recovery.Records = len(scan.Records)
	s.recovery.TruncatedBytes = scan.TruncatedBytes
	if scan.TruncatedBytes > 0 {
		s.log.Warn("journal tail truncated",
			"bytes", scan.TruncatedBytes, "cleanRecords", len(scan.Records))
	}
	if len(scan.Records) == 0 {
		if s.isFollower() {
			// A fresh follower journal stays empty: its first record will
			// be the leader's header, shipped over the stream, keeping the
			// file a byte prefix of the leader's journal.
			return nil
		}
		// Fresh journal: stamp it with this daemon's configuration.
		h := s.headerRecord()
		if err := j.Append(persist.KindHeader, encodeHeader(h)); err != nil {
			return fmt.Errorf("server: journal header: %w", err)
		}
		return s.applyHeader(h)
	}
	if err := s.recoverRecords(scan.Records); err != nil {
		return fmt.Errorf("server: recover %s: %w", j.Path(), err)
	}
	s.recovery.Recovered = true
	s.log.Info("recovered from journal",
		"records", len(scan.Records),
		"snapshotQuantum", s.recovery.SnapshotQuantum,
		"replayedBoundaries", s.recovery.ReplayedBoundaries,
		"resumedJobs", s.recovery.ResumedJobs,
		"requeuedJobs", s.recovery.RequeuedJobs,
		"truncatedBytes", s.recovery.TruncatedBytes)
	return nil
}

// recoverRecords rebuilds the daemon's state by applying the journal's
// clean records through the record handlers (apply.go), holding the engine
// back until the last snapshot restores it.
func (s *Server) recoverRecords(records []persist.Record) error {
	last := 0 // the record the replay starts after: the header, or the last snapshot
	for i, rec := range records {
		if rec.Kind == persist.KindSnapshot {
			if s.hold == nil {
				s.hold = &bootHold{}
			}
			s.hold.snapshots++
			last = i
		}
	}
	for i, rec := range records {
		if err := s.applyRecord(rec); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	s.recovery.ReplayedRecords = len(records) - 1 - last
	s.recovery.ReplayedBoundaries = s.eng.Boundary() - s.recovery.SnapshotBoundary
	s.recovery.ResumedJobs = s.eng.NumJobs()
	s.recovery.RequeuedJobs = len(s.queue)
	return nil
}

// journalLog is the decoded, cross-checked content of a journal, as the
// reference replay reads it.
type journalLog struct {
	header   headerRecord
	submits  []submitRecord
	admitted []int // admission boundary by job id
	// shares maps step boundaries to the cluster-assigned capacity shares
	// their quanta executed under (cluster-shard journals only; see
	// stepRecord).
	shares map[int]int
}

// parseJournal decodes and sanity-checks a clean record stream.
func parseJournal(records []persist.Record) (*journalLog, error) {
	if records[0].Kind != persist.KindHeader {
		return nil, fmt.Errorf("journal does not start with a header record (kind %d)", records[0].Kind)
	}
	h, err := decodeHeader(records[0].Body)
	if err != nil {
		return nil, err
	}
	lg := &journalLog{header: h, shares: make(map[int]int)}
	submitted, maxStep := 0, -1
	for i, rec := range records[1:] {
		switch rec.Kind {
		case persist.KindHeader:
			return nil, fmt.Errorf("record %d: duplicate header", i+1)
		case persist.KindSubmit:
			sub, err := decodeSubmit(rec.Body)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i+1, err)
			}
			if sub.firstID != submitted {
				return nil, fmt.Errorf("record %d: submit ids start at %d, expected %d",
					i+1, sub.firstID, submitted)
			}
			submitted = sub.firstID + sub.count
			lg.submits = append(lg.submits, sub)
		case persist.KindAdmit:
			adm, err := decodeAdmit(rec.Body)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i+1, err)
			}
			for _, id := range adm.ids {
				// Admission order is id order — the engine assigns dense ids
				// and the server enforces the match, so the journal must too.
				if id != len(lg.admitted) {
					return nil, fmt.Errorf("record %d: admit id %d out of order (expected %d)",
						i+1, id, len(lg.admitted))
				}
				if id >= submitted {
					return nil, fmt.Errorf("record %d: admit id %d was never submitted", i+1, id)
				}
				lg.admitted = append(lg.admitted, adm.boundary)
			}
		case persist.KindStep:
			st, err := decodeStep(rec.Body)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i+1, err)
			}
			if st.boundary < maxStep {
				return nil, fmt.Errorf("record %d: step boundary %d below previous %d",
					i+1, st.boundary, maxStep)
			}
			maxStep = st.boundary
			if st.share >= 0 {
				lg.shares[st.boundary] = st.share
			}
		case persist.KindSnapshot:
			// The reference replays from boundary zero, but a snapshot it
			// cannot decode still marks a corrupt journal.
			if _, err := decodeSnapshot(rec.Body); err != nil {
				return nil, fmt.Errorf("record %d: %w", i+1, err)
			}
		case persist.KindEpoch:
			// A leadership change mutates no engine state, but the
			// cross-check against the framing epoch still catches a
			// corrupted promotion.
			if _, err := decodeEpoch(rec); err != nil {
				return nil, fmt.Errorf("record %d: %w", i+1, err)
			}
		case persist.KindDrain:
		default:
			return nil, fmt.Errorf("record %d: unknown kind %d", i+1, rec.Kind)
		}
	}
	return lg, nil
}

// ReferenceResult replays a journal offline, from boundary zero and without
// any snapshot, and returns the final status of every admitted job. It is
// the crash soak's ground truth: a daemon that crash-recovered any number
// of times must report job results DeepEqual to this uninterrupted
// reference, because both are the same deterministic function of the same
// journal. It shares no replay code with the daemon: every admitted job is
// submitted up front with its admission boundary pinned as its release,
// step records are ignored, and the engine runs until done. The
// configuration is taken from the journal's header record.
func ReferenceResult(dir string) ([]JobStatusDTO, error) {
	scan, err := persist.ScanFile(filepath.Join(dir, persist.JournalFile))
	if err != nil {
		return nil, fmt.Errorf("server: reference: %w", err)
	}
	if len(scan.Records) == 0 {
		return nil, fmt.Errorf("server: reference: empty journal in %s", dir)
	}
	lg, err := parseJournal(scan.Records)
	if err != nil {
		return nil, fmt.Errorf("server: reference: %w", err)
	}
	h := lg.header
	plan, err := fault.ParseSpec(h.faultSpec, h.p)
	if err != nil {
		return nil, fmt.Errorf("server: reference: %w", err)
	}
	var scheduler core.Scheduler
	if h.scheduler == "abg" {
		scheduler = core.NewABG(h.r)
	} else {
		scheduler = core.NewAGreedy(h.rho, h.delta)
	}
	capacity := plan.Capacity
	if len(lg.shares) > 0 {
		// A cluster shard's journal: replay each quantum under the share the
		// cluster pinned for it, exactly as the shard executed it.
		t := NewShareTable(h.p, plan.Capacity)
		for b, share := range lg.shares {
			t.Set(b+1, share)
		}
		capacity = t
	}
	eng, err := sim.NewEngine(sim.MultiConfig{
		P: h.p, L: h.l,
		Allocator: alloc.DynamicEquiPartition{},
		MaxQuanta: math.MaxInt - 1,
		Capacity:  capacity,
	})
	if err != nil {
		return nil, err
	}
	for _, sub := range lg.submits {
		for i := 0; i < sub.count && sub.firstID+i < len(lg.admitted); i++ {
			id := sub.firstID + i
			p := pendingJob{id: id, name: sub.req.jobName(i, id), profile: sub.req.BuildProfile(i, h.l)}
			got, err := eng.Submit(buildSpec(plan, scheduler, nil, p, int64(lg.admitted[id])*int64(h.l)))
			if err != nil {
				return nil, err
			}
			if got != id {
				return nil, fmt.Errorf("server: reference: id skew at job %d", id)
			}
		}
	}
	for !eng.Done() {
		if _, err := eng.Step(); err != nil {
			return nil, fmt.Errorf("server: reference: %w", err)
		}
	}
	sts := eng.Statuses()
	out := make([]JobStatusDTO, len(sts))
	for i, st := range sts {
		out[i] = statusDTO(st)
	}
	return out, nil
}
