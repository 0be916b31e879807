package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"

	"abg/internal/failover"
	"abg/internal/persist"
	"abg/internal/replica"
)

// Replication. The write-ahead journal is the daemon's complete op log
// (header, submits, admits, steps, drain, snapshots — see journal.go), and
// the engine is bit-identically replay-deterministic, so replication is
// journal shipping: a leader streams its journal file's bytes; a follower
// appends each shipped record to its own journal (keeping its file a byte
// prefix of the leader's) and applies it to its own engine through the
// per-kind record handlers the leader and boot recovery use (apply.go).
// Follower state is therefore a pure function of its applied byte offset —
// at equal offsets, leader and follower hold identical engines, identical
// job results, and identical SSE event ids, which is what lets followers
// serve reads (/state, job status, /metrics, /api/v1/events) and re-serve
// the event stream to their own subscribers while the leader takes only
// writes. Followers also serve
// /api/v1/journal themselves, so followers can chain off followers (a
// fan-out relay tier).
//
// Failover is promotion: a follower stops tailing and starts the quantum
// clock on the state it has applied — exactly the crash-recovery resume,
// so the promoted daemon provably continues the leader's run. Shipping is
// asynchronous, so the guarantee is exact-prefix: every record that reached
// the promoted follower is preserved with identical ids and results; an
// acknowledged-but-unshipped tail is lost, and idempotent client
// re-submission heals it (the same key regenerates the same jobs under
// fresh ids). The follower with the LONGEST applied journal must be the one
// promoted: every follower's journal is a byte prefix of the dead leader's,
// hence of each other's, so the longest one subsumes the rest and the
// shorter followers retarget at it.
//
// Promotion is fenced by leader epochs (see failover.go and
// internal/failover). Every journal record is framed under the epoch of the
// leader that wrote it; a promotion appends a KindEpoch record under the
// next epoch before the new leader resumes the clock. A replica applying
// shipped bytes rejects any record whose epoch is below its own — the
// durable, journal-level guarantee that a resurrected stale leader can
// never fork a survivor's history. With -group configured, promotion is
// automated: a per-node supervisor probes the group, detects leader death
// by quorum, elects the longest-prefix follower under a new epoch, and
// retargets the survivors — zero operator action.

// Role is a daemon's replication role.
type Role int32

const (
	// RoleLeader runs the quantum clock and takes writes. A daemon without
	// -follow is a leader from boot (replication needs -journal, but a
	// journal-less leader is still "leader": it simply has nothing to ship).
	RoleLeader Role = iota
	// RoleFollower tails a leader's journal and serves only reads; writes
	// are answered with a 307 to the leader.
	RoleFollower
)

func (r Role) String() string {
	if r == RoleFollower {
		return "follower"
	}
	return "leader"
}

// isFollower reports whether the daemon currently serves in follower role.
func (s *Server) isFollower() bool { return Role(s.role.Load()) == RoleFollower }

// shippedApplier adapts the Server's follower role onto replica.Applier.
type shippedApplier struct{ s *Server }

func (a shippedApplier) Offset() int64 { return a.s.journal.Size() }

func (a shippedApplier) Apply(rec persist.Record) error { return a.s.applyShipped(rec) }

// applyShipped applies one shipped journal record: append it to the local
// journal first (identical bytes — the follower's file stays a verbatim
// prefix of the leader's), then apply it through the record handlers the
// leader and boot recovery use (apply.go). Any inconsistency is fatal: a
// follower that cannot apply must wedge loudly, never serve state it knows
// is divergent.
func (s *Server) applyShipped(rec persist.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fatal != nil {
		return s.fatal
	}
	// Epoch fencing: shipped records never step backwards, and step forwards
	// only through an explicit epoch record. A lower epoch means the upstream
	// is a resurrected stale leader trying to fork history — nothing it ships
	// may ever reach this journal.
	cur := s.journal.Epoch()
	switch {
	case rec.Epoch < cur:
		err := fmt.Errorf("fenced: shipped %s record carries stale epoch %d, local epoch is %d",
			persist.KindName(rec.Kind), rec.Epoch, cur)
		s.failLocked(err)
		return err
	case rec.Epoch > cur && rec.Kind != persist.KindEpoch:
		err := fmt.Errorf("shipped %s record jumps to epoch %d without an epoch record (local epoch %d)",
			persist.KindName(rec.Kind), rec.Epoch, cur)
		s.failLocked(err)
		return err
	}
	// AppendRecord preserves the shipped framing epoch verbatim, keeping the
	// file a byte copy of the upstream journal.
	if err := s.journal.AppendRecord(rec); err != nil {
		s.failLocked(fmt.Errorf("replica journal append: %w", err))
		return err
	}
	if err := s.applyRecord(rec); err != nil {
		s.failLocked(fmt.Errorf("replica apply: %w", err))
		return err
	}
	return nil
}

// follow is the follower's driver goroutine: tail the leader until the
// tailer stops. Three exits: promotion (this goroutine becomes the quantum
// clock, via drive), shutdown (ctx cancelled / tailer stopped), or a fatal
// replication error (the daemon wedges and reports it through Wait).
func (s *Server) follow(ctx context.Context) {
	err := s.tailer.Run(ctx)
	if err != nil {
		s.mu.Lock()
		s.failLocked(err)
		s.mu.Unlock()
	}
	if s.killed.Load() {
		// Crash simulation (tests only): stop dead, like SIGKILL would.
		s.closeStopped()
		return
	}
	if err == nil && ctx.Err() == nil && !s.isFollower() {
		// Promoted: continue the leader's run on the applied state — the
		// same resume crash recovery performs. The epoch record is appended
		// here, after the tailer has fully stopped, so it can never
		// interleave with an in-flight shipped append; then this goroutine
		// becomes the quantum clock (or, if the dead leader had already
		// drained, just finishes the drain).
		s.sealPromotion()
		s.drive(ctx)
		return
	}
	if s.draining.Load() && s.Fatal() == nil {
		s.log.Info("follower drained with leader", "jobs", s.completedJobs())
	}
	s.finish()
}

// closeDrained and closeStopped make the lifecycle channels safe to close
// from both the leader drive path and the follower shutdown path.
func (s *Server) closeDrained() { s.drainedOnce.Do(func() { close(s.drained) }) }
func (s *Server) closeStopped() { s.stoppedOnce.Do(func() { close(s.stopped) }) }

// Promote switches a follower to leader under the next epoch: the tailer
// stops, and the follow goroutine seals the new term (KindEpoch record) and
// starts the quantum clock on the applied state. The promoted daemon
// resumes the leader's run exactly where its applied journal prefix ends —
// same job ids, same results, same SSE event ids (the PR 4 recovery
// guarantee, reached over the network instead of a reboot).
func (s *Server) Promote(reason string) error {
	return s.PromoteTo(s.epoch.Load()+1, reason)
}

// PromoteTo promotes under an explicit epoch — the term the election (or
// manual claim) won. In group mode the epoch must be promised to this node
// (see Promise): the re-check under s.mu closes the race where this node
// self-promised and then deferred to a strictly longer candidate while its
// own claim was still collecting grants.
func (s *Server) PromoteTo(epoch uint32, reason string) error {
	s.mu.Lock()
	ready := s.headerSeen
	promised := s.promiseEpoch == epoch && s.promiseHolder == s.advertise()
	s.mu.Unlock()
	if !ready {
		return fmt.Errorf("server: follower has no replicated state to promote")
	}
	if cur := s.epoch.Load(); epoch <= cur {
		return fmt.Errorf("server: promotion epoch %d is not beyond current epoch %d", epoch, cur)
	}
	if len(s.cfg.Group) > 0 && !promised {
		return fmt.Errorf("server: epoch %d is not promised to this node", epoch)
	}
	if !s.role.CompareAndSwap(int32(RoleFollower), int32(RoleLeader)) {
		return fmt.Errorf("server: not a follower")
	}
	s.mu.Lock()
	s.pendingEpoch = epoch
	s.mu.Unlock()
	s.confirmed.Store(true) // the quorum (or the operator) just confirmed us
	s.promotions.Add(1)
	s.log.Info("promoting to leader",
		"reason", reason, "epoch", epoch, "journalBytes", s.journal.Size())
	s.tailer.Stop()
	return nil
}

// sealPromotion makes a just-promoted leader's term durable: raise the
// journal epoch and append the KindEpoch record as the first record of the
// new term, before any submit or step is written under it. Runs on the
// follow goroutine after the tailer has stopped; no shipped append can race.
func (s *Server) sealPromotion() {
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch := s.pendingEpoch
	s.pendingEpoch = 0
	if epoch == 0 || s.journal == nil || s.fatal != nil {
		return
	}
	rec := epochRecord{epoch: epoch, leader: s.advertise()}
	s.journal.SetEpoch(epoch)
	if s.appendJournal(persist.KindEpoch, encodeEpoch(rec)) == nil {
		s.applyEpoch(rec)
	}
}

// --- HTTP surface ---------------------------------------------------------

// redirectToLeader answers writes arriving at a follower with a 307 to the
// current leader, preserving method and body. Returns true when handled.
func (s *Server) redirectToLeader(w http.ResponseWriter, r *http.Request) bool {
	if !s.isFollower() {
		return false
	}
	http.Redirect(w, r, s.tailer.Leader()+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	return true
}

// handleJournal streams the journal's bytes from the requested offset,
// then keeps the response open, shipping every new record as it is
// appended (chunked transfer; each burst is flushed). Served by leaders
// and followers alike — a follower's journal is a byte prefix of its
// leader's, so followers can feed further followers (relay tier).
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		WriteError(w, http.StatusNotFound, "journal disabled (-journal not set)")
		return
	}
	from := int64(0)
	if v := r.URL.Query().Get("from"); v != "" {
		p, err := strconv.ParseInt(v, 10, 64)
		if err != nil || p < 0 {
			WriteError(w, http.StatusBadRequest, "bad from offset: "+v)
			return
		}
		from = p
	}
	size := s.journal.Size()
	if from > size {
		// The requester holds bytes this journal never wrote: divergent
		// histories (e.g. a shorter journal was promoted after a failover).
		// 409 is a hard error on the follower side — reconnecting cannot
		// heal a wrong history.
		WriteError(w, http.StatusConflict, fmt.Sprintf(
			"offset %d beyond journal size %d: divergent history", from, size))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	f, err := os.Open(s.journal.Path())
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "open journal: "+err.Error())
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(replica.SizeHeader, strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	buf := make([]byte, 64*1024)
	pos := from
	for {
		// Ship everything committed so far. Size() is the clean length —
		// bytes below it are whole records, safe to expose mid-append.
		size = s.journal.Size()
		for pos < size {
			n := len(buf)
			if int64(n) > size-pos {
				n = int(size - pos)
			}
			if _, err := f.ReadAt(buf[:n], pos); err != nil {
				return
			}
			if _, err := w.Write(buf[:n]); err != nil {
				return
			}
			pos += int64(n)
		}
		flusher.Flush()
		ch := s.journal.Updated()
		if s.journal.Size() > pos {
			continue // appended between the copy loop and the channel fetch
		}
		select {
		case <-ch:
		case <-s.drained:
			if s.journal.Size() > pos {
				continue // final drain records still to ship
			}
			return
		case <-r.Context().Done():
			return
		}
	}
}

// ReplicationDTO is served at /api/v1/replication.
type ReplicationDTO struct {
	// Role is "leader" or "follower".
	Role string `json:"role"`
	// JournalBytes is the local journal's clean length: the leader's
	// shipping high-water mark, the follower's applied offset. The follower
	// with the largest value holds the longest prefix of the dead leader's
	// journal and is the one to promote.
	JournalBytes int64 `json:"journalBytes"`
	// AppliedRecords counts records applied since boot (recovery + stream);
	// follower only.
	AppliedRecords int64 `json:"appliedRecords,omitempty"`
	// LagBytes is the follower's best-effort byte lag behind its leader
	// (last observed leader size minus applied offset, floored at zero).
	LagBytes int64 `json:"lagBytes"`
	// Promotions counts role transitions to leader since boot (0 or 1).
	Promotions int64 `json:"promotions"`
	// Epoch is the leadership term this daemon serves under: the highest
	// epoch in its journal. Stale leaders are exactly those whose epoch is
	// below the group maximum.
	Epoch uint32 `json:"epoch"`
	// Addr is the daemon's advertised base URL (-advertise, else the bound
	// listen address) — what group peers and clients should dial.
	Addr string `json:"addr,omitempty"`
	// Fenced reports that this daemon observed a successor's higher epoch
	// and has permanently stopped taking writes (it is shutting down).
	Fenced bool `json:"fenced,omitempty"`
	// Confirmed reports that a grouped leader has completed a probe round
	// without seeing a higher epoch and accepts writes. Followers and
	// groupless leaders are always confirmed.
	Confirmed bool `json:"confirmed"`
	// PromisedEpoch is the highest epoch this member has promised to a
	// failover candidate (zero if none). Probing supervisors treat an
	// outstanding promise beyond their own epoch as "a succession is in
	// flight" — a rebooted stale leader must not confirm through it.
	PromisedEpoch uint32 `json:"promisedEpoch,omitempty"`
	// Tail is the transport status; follower only.
	Tail *replica.Status `json:"tail,omitempty"`
}

func (s *Server) replication() ReplicationDTO {
	dto := ReplicationDTO{
		Role:       Role(s.role.Load()).String(),
		Promotions: s.promotions.Load(),
		Epoch:      s.epoch.Load(),
		Addr:       s.advertise(),
		Fenced:     s.fenced.Load(),
		Confirmed:  s.confirmed.Load(),
	}
	s.mu.Lock()
	dto.PromisedEpoch = s.promiseEpoch
	s.mu.Unlock()
	if s.journal != nil {
		dto.JournalBytes = s.journal.Size()
	}
	if s.tailer != nil && s.isFollower() {
		st := s.tailer.Status()
		dto.Tail = &st
		if lag := st.LeaderBytes - dto.JournalBytes; lag > 0 {
			dto.LagBytes = lag
		}
		s.mu.Lock()
		dto.AppliedRecords = s.applied
		s.mu.Unlock()
	}
	return dto
}

func (s *Server) handleReplication(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.replication())
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if !s.isFollower() {
		WriteError(w, http.StatusConflict, "not a follower")
		return
	}
	if s.super != nil {
		// Group mode: a manual promote runs the same quorum claim an
		// automated election runs, so two operators promoting two followers
		// of the same dead leader serialize — exactly one (the longer
		// prefix) wins, and the loser's 409 names the winner.
		if err := s.super.ManualPromote(r.Context()); err != nil {
			var lost *failover.ElectionLost
			if errors.As(err, &lost) && lost.Winner != "" {
				w.Header().Set(WinnerHeader, lost.Winner)
			}
			WriteError(w, http.StatusConflict, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, s.replication())
		return
	}
	if err := s.Promote("api"); err != nil {
		WriteError(w, http.StatusConflict, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, s.replication())
}

// retargetRequest is the POST /api/v1/retarget body.
type retargetRequest struct {
	Leader string `json:"leader"`
}

// handleRetarget re-points a follower at a new leader — after a failover,
// the surviving followers retarget at the promoted one. Safe because every
// follower's journal is a byte prefix of the promoted leader's; if this
// follower were somehow ahead (operator promoted the wrong, shorter
// journal), the offset check on reconnect turns it into a loud 409 instead
// of silent divergence.
func (s *Server) handleRetarget(w http.ResponseWriter, r *http.Request) {
	if !s.isFollower() {
		WriteError(w, http.StatusConflict, "not a follower")
		return
	}
	var req retargetRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Leader == "" {
		WriteError(w, http.StatusBadRequest, "leader is required")
		return
	}
	s.Retarget(req.Leader)
	WriteJSON(w, http.StatusOK, s.replication())
}
