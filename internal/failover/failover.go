// Package failover automates leader failover for a journal-shipping
// replication group (internal/server, internal/replica).
//
// Every member of a -group runs one Supervisor beside its daemon. The
// supervisor probes the whole group every ProbeEvery, and the group heals
// itself through three mechanisms, all built on monotonic leader epochs:
//
//   - Election. A follower that has lost its leader — tail stream down and
//     the leader unreachable by direct probe for longer than FailAfter —
//     looks for a death quorum: itself plus every reachable, unfenced
//     follower whose tail is also down must reach a strict majority of the
//     group. It then nominates the member with the longest applied journal
//     (ties break toward the smallest address; every follower's journal is
//     a byte prefix of the dead leader's, so the longest subsumes the
//     rest). If that member is itself, it claims the next epoch by asking
//     every member for a promise (POST /api/v1/fence); a majority of grants
//     wins and the node promotes under the claimed epoch. A failed claim
//     backs off for a randomized (but seed-deterministic) holdoff, so
//     competing candidates separate instead of livelocking.
//
//   - Fencing. Members promise at most one candidate per epoch, so two
//     concurrent claims for the same epoch cannot both assemble a majority
//     — any two majorities share a member. A leader that observes a peer
//     serving under a higher epoch has provably been deposed; its
//     supervisor fences it (permanent, fatal), and the epoch stamped into
//     every journal record keeps anything it wrote after deposition out of
//     every survivor's journal.
//
//   - Retargeting. A follower whose tail is down retargets at the group's
//     current leader — the reachable, unfenced leader with the highest
//     epoch — as soon as one exists, resuming shipping from its applied
//     offset with no operator action.
//
// The package speaks to its own daemon through the Node interface and to
// peers over the daemons' public HTTP API, so it has no dependency on the
// server package.
package failover

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

const (
	// FencePath is the endpoint a candidate claims an epoch through.
	FencePath = "/api/v1/fence"
	// replicationPath is the status endpoint probes read.
	replicationPath = "/api/v1/replication"

	// DefaultProbeEvery and DefaultFailAfter apply when the corresponding
	// Supervisor fields are zero.
	DefaultProbeEvery = 500 * time.Millisecond
	DefaultFailAfter  = 2 * time.Second
)

// NormalizeURL canonicalizes a member address: bare host:port gains an
// http:// scheme, trailing slashes are dropped. Group membership and
// promise-holder comparisons are by normalized URL.
func NormalizeURL(u string) string {
	u = strings.TrimSpace(u)
	if u == "" {
		return ""
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return strings.TrimRight(u, "/")
}

// SplitGroup parses a comma-separated member list (the -group flag of abgd
// and abgload), dropping blank entries.
func SplitGroup(s string) []string {
	var out []string
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// NodeStatus is the supervisor's view of its own daemon.
type NodeStatus struct {
	Role         string // "leader" or "follower"
	Epoch        uint32 // current leadership term
	JournalBytes int64  // applied journal length
	Fenced       bool   // deposed; shutting down
	Confirmed    bool   // leader has completed a clean probe round
	Leader       string // tail target (followers only)
	Connected    bool   // tail stream live right now (followers only)
}

// Node is the daemon a Supervisor manages. Implemented by *server.Server.
type Node interface {
	// Status reports the daemon's current replication condition.
	Status() NodeStatus
	// Confirm marks a leader's term current: a probe round reached a
	// majority and found no higher epoch, so writes may flow.
	Confirm()
	// Fence permanently deposes the daemon: a peer serves under a higher
	// epoch. The daemon must stop taking writes and shut down with an error.
	Fence(epoch uint32, winner string)
	// Retarget re-points a follower's tail at the given leader URL.
	Retarget(leader string)
	// Promise evaluates a fencing claim locally (the in-process twin of
	// POST /api/v1/fence).
	Promise(epoch uint32, candidate string, candidateBytes int64) FenceResponse
	// PromoteTo switches a follower to leader under the claimed epoch.
	PromoteTo(epoch uint32, reason string) error
}

// FenceRequest is the POST /api/v1/fence body: candidate asks the receiving
// member to back it as leader for Epoch.
type FenceRequest struct {
	Epoch        uint32 `json:"epoch"`
	Candidate    string `json:"candidate"`
	JournalBytes int64  `json:"journalBytes"`
}

// FenceResponse is a member's verdict on a fencing claim.
type FenceResponse struct {
	// Granted backs the candidate. A member grants at most one candidate
	// per epoch, which is what serializes concurrent claims.
	Granted bool `json:"granted"`
	// Epoch and JournalBytes describe the responder, so even a denial
	// teaches the candidate how far the group has moved.
	Epoch        uint32 `json:"epoch"`
	JournalBytes int64  `json:"journalBytes"`
	// Holder, on a denial, names who the responder backs instead: itself
	// (longest-prefix rule, live leader) or a previously promised candidate.
	Holder string `json:"holder,omitempty"`
	// Reason, on a denial, says why.
	Reason string `json:"reason,omitempty"`
}

// ElectionLost reports a claim that failed: another member holds (or won)
// the contested leadership. Callers surface Winner to the operator or
// client so the next attempt lands on the right member.
type ElectionLost struct {
	Epoch  uint32 // the epoch claimed
	Winner string // advertised URL of the member backed instead, if known
	Reason string
}

func (e *ElectionLost) Error() string {
	msg := fmt.Sprintf("election lost (epoch %d): %s", e.Epoch, e.Reason)
	if e.Winner != "" {
		msg += "; promotion is held by " + e.Winner
	}
	return msg
}

// peerView is one probe result.
type peerView struct {
	URL           string // the URL probed
	Err           error  // probe failure; all other fields are zero
	Addr          string
	Role          string
	Epoch         uint32
	PromisedEpoch uint32
	JournalBytes  int64
	Fenced        bool
	TailConnected bool
}

// probeDTO mirrors the fields of server.ReplicationDTO the supervisor
// reads. Kept as a private struct so this package needs no import of the
// server package (which imports this one).
type probeDTO struct {
	Role          string `json:"role"`
	JournalBytes  int64  `json:"journalBytes"`
	Epoch         uint32 `json:"epoch"`
	PromisedEpoch uint32 `json:"promisedEpoch"`
	Addr          string `json:"addr"`
	Fenced        bool   `json:"fenced"`
	Tail          *struct {
		Connected bool `json:"connected"`
	} `json:"tail"`
}

// Supervisor runs the failover protocol for one group member.
type Supervisor struct {
	// Node is the local daemon.
	Node Node
	// Self is the local daemon's advertised URL (must appear in Group).
	Self string
	// Group is every member's advertised URL, normalized, including Self.
	Group []string
	// ProbeEvery is the probe-round period; FailAfter is how long the
	// leader must stay unreachable before an election starts (and the base
	// of the post-defeat holdoff).
	ProbeEvery, FailAfter time.Duration
	// Seed makes the holdoff jitter deterministic (mixed with Self, so
	// members sharing a seed still separate).
	Seed uint64
	// HTTP is the probe/claim transport; http.DefaultClient when nil.
	// Per-request timeouts come from the supervisor, so Timeout may be 0.
	HTTP *http.Client
	// Log receives supervisor events; slog.Default() when nil.
	Log *slog.Logger

	mu        sync.Mutex // serializes rounds and manual promotes
	rng       *rand.Rand
	deadSince time.Time // when the tailed leader first looked dead
	holdUntil time.Time // no claims before this (post-defeat holdoff)
	maxSeen   uint32    // highest epoch (or promise) observed anywhere
}

func (s *Supervisor) probeEvery() time.Duration {
	if s.ProbeEvery <= 0 {
		return DefaultProbeEvery
	}
	return s.ProbeEvery
}

func (s *Supervisor) failAfter() time.Duration {
	if s.FailAfter <= 0 {
		return DefaultFailAfter
	}
	return s.FailAfter
}

// probeTimeout bounds one probe or claim request: a probe that outlives the
// round period is as useless as a failed one, but never go below 500ms — a
// loaded host must not fabricate leader death.
func (s *Supervisor) probeTimeout() time.Duration {
	if pe := s.probeEvery(); pe > 500*time.Millisecond {
		return pe
	}
	return 500 * time.Millisecond
}

func (s *Supervisor) client() *http.Client {
	if s.HTTP != nil {
		return s.HTTP
	}
	return http.DefaultClient
}

func (s *Supervisor) log() *slog.Logger {
	if s.Log != nil {
		return s.Log
	}
	return slog.Default()
}

// quorum is a strict majority of the group.
func (s *Supervisor) quorum() int { return len(s.Group)/2 + 1 }

// Run probes and heals until ctx is cancelled. Call in its own goroutine.
func (s *Supervisor) Run(ctx context.Context) {
	s.mu.Lock()
	if s.rng == nil {
		h := fnv.New64a()
		h.Write([]byte(s.Self))
		s.rng = rand.New(rand.NewSource(int64(s.Seed ^ h.Sum64())))
	}
	s.mu.Unlock()
	t := time.NewTicker(s.probeEvery())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.round(ctx)
		}
	}
}

// round is one probe-and-heal pass.
func (s *Supervisor) round(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.Node.Status()
	if st.Fenced {
		return
	}
	views := s.probeAll(ctx, st)
	s.noteEpochs(st, views)
	if st.Role == "leader" {
		s.leaderRound(st, views)
		return
	}
	s.followerRound(ctx, st, views)
}

// noteEpochs folds every observed epoch (and outstanding promise) into the
// claim floor.
func (s *Supervisor) noteEpochs(st NodeStatus, views []peerView) {
	if st.Epoch > s.maxSeen {
		s.maxSeen = st.Epoch
	}
	for _, v := range views {
		if v.Err != nil {
			continue
		}
		if v.Epoch > s.maxSeen {
			s.maxSeen = v.Epoch
		}
		if v.PromisedEpoch > s.maxSeen {
			s.maxSeen = v.PromisedEpoch
		}
	}
}

// leaderRound checks a leader's term: fence on any higher epoch; confirm
// once a majority answered and none knew better.
func (s *Supervisor) leaderRound(st NodeStatus, views []peerView) {
	var winner string
	var deposedBy uint32
	reached := 1 // self
	for _, v := range views {
		if v.Err != nil {
			continue
		}
		reached++
		if v.Epoch > st.Epoch && v.Epoch > deposedBy {
			deposedBy = v.Epoch
			winner = v.Addr
			if v.Role != "leader" {
				winner = "" // a follower already on the new term; leader unknown
			}
		}
		if v.PromisedEpoch > st.Epoch && deposedBy == 0 {
			// A claim beyond our term is in flight; do not confirm this round.
			reached--
		}
	}
	if deposedBy > 0 {
		s.log().Warn("observed a successor epoch; fencing self",
			"epoch", deposedBy, "winner", winner)
		s.Node.Fence(deposedBy, winner)
		return
	}
	if !st.Confirmed && reached >= s.quorum() {
		s.Node.Confirm()
	}
}

// followerRound heals a follower: retarget at the group's current leader
// when the tail is down, or elect a new one when there is no leader left.
func (s *Supervisor) followerRound(ctx context.Context, st NodeStatus, views []peerView) {
	tail := NormalizeURL(st.Leader)
	if st.Connected {
		s.deadSince = time.Time{}
	}
	// Retarget: a reachable, unfenced leader at (or beyond) our epoch whose
	// address differs from the tail target, while the tail is down.
	if !st.Connected {
		if lead, ok := groupLeader(views, st.Epoch); ok && NormalizeURL(lead.Addr) != tail {
			s.log().Info("retargeting at the group leader",
				"leader", lead.Addr, "epoch", lead.Epoch)
			s.Node.Retarget(lead.Addr)
			s.deadSince = time.Time{}
			return
		}
	}
	// Leader death: the tail target itself must be gone (unreachable,
	// fenced, or no longer a leader), not merely the stream dropped.
	dead := !st.Connected
	for _, v := range views {
		if NormalizeURL(v.URL) != tail {
			continue
		}
		if v.Err == nil && !v.Fenced && v.Role == "leader" {
			dead = false
		}
	}
	now := time.Now()
	if !dead {
		s.deadSince = time.Time{}
		return
	}
	if s.deadSince.IsZero() {
		s.deadSince = now
		return
	}
	if now.Sub(s.deadSince) < s.failAfter() || now.Before(s.holdUntil) {
		return
	}
	// Death quorum: self plus every reachable, unfenced follower that has
	// also lost its tail. (No check that they tailed the *same* leader —
	// members may dial the leader through different addresses.)
	votes := 1
	candAddr, candBytes := s.Self, st.JournalBytes
	for _, v := range views {
		if v.Err != nil || v.Fenced || v.Role != "follower" || v.TailConnected {
			continue
		}
		if !s.inGroup(v.Addr) {
			continue
		}
		votes++
		if v.JournalBytes > candBytes ||
			(v.JournalBytes == candBytes && v.Addr < candAddr) {
			candAddr, candBytes = v.Addr, v.JournalBytes
		}
	}
	if votes < s.quorum() {
		return
	}
	if candAddr != s.Self {
		// A peer holds a longer journal (or wins the tie): its claim must
		// win, so stand back one holdoff instead of racing it.
		s.holdUntil = now.Add(s.failAfter() + s.jitter())
		return
	}
	epoch := s.maxSeen + 1
	s.log().Info("leader death quorum reached; claiming epoch",
		"epoch", epoch, "votes", votes, "quorum", s.quorum(),
		"deadFor", now.Sub(s.deadSince).Round(time.Millisecond))
	if err := s.claim(ctx, epoch, "election"); err != nil {
		s.log().Warn("claim failed; holding off", "epoch", epoch, "err", err)
		s.holdUntil = time.Now().Add(s.failAfter() + s.jitter())
		return
	}
	s.deadSince = time.Time{}
}

// ManualPromote runs the same quorum claim an automated election runs, on
// operator demand (POST /api/v1/promote in group mode). Concurrent manual
// promotes on two followers therefore serialize exactly like competing
// elections: one wins, the loser's error names the winner.
func (s *Supervisor) ManualPromote(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.Node.Status()
	if st.Fenced {
		return fmt.Errorf("fenced: this daemon was deposed")
	}
	if st.Role != "follower" {
		return fmt.Errorf("not a follower")
	}
	views := s.probeAll(ctx, st)
	s.noteEpochs(st, views)
	// A strictly better follower with a claim in flight wins: a claim of
	// ours never can (that follower denies it by the longest-prefix rule),
	// and claiming past its epoch would only supersede its promises on the
	// members it has not reached yet, so that neither claim wins.
	for _, v := range views {
		if v.Err == nil && !v.Fenced && v.Role == "follower" && v.PromisedEpoch > st.Epoch &&
			(v.JournalBytes > st.JournalBytes || (v.JournalBytes == st.JournalBytes && v.Addr < s.Self)) {
			return &ElectionLost{Epoch: v.PromisedEpoch, Winner: v.Addr,
				Reason: "a follower with a longer journal is claiming"}
		}
	}
	return s.claim(ctx, s.maxSeen+1, "manual promote")
}

// claim asks every member to promise epoch to this node. A strict majority
// of grants (the local promise counts) wins; the node then promotes under
// the epoch. Callers hold s.mu.
func (s *Supervisor) claim(ctx context.Context, epoch uint32, reason string) error {
	st := s.Node.Status()
	if resp := s.Node.Promise(epoch, s.Self, st.JournalBytes); !resp.Granted {
		return &ElectionLost{Epoch: epoch, Winner: resp.Holder,
			Reason: "local promise denied: " + resp.Reason}
	}
	grants := 1
	var winner string
	for _, peer := range s.Group {
		if NormalizeURL(peer) == NormalizeURL(s.Self) {
			continue
		}
		resp, err := s.fence(ctx, peer, epoch, st.JournalBytes)
		if err != nil {
			continue // unreachable members simply do not vote
		}
		if resp.Epoch > s.maxSeen {
			s.maxSeen = resp.Epoch
		}
		if resp.Granted {
			grants++
		} else if resp.Holder != "" && resp.Holder != s.Self {
			winner = resp.Holder
		}
	}
	if grants < s.quorum() {
		return &ElectionLost{Epoch: epoch, Winner: winner,
			Reason: fmt.Sprintf("%d of the %d required promises granted", grants, s.quorum())}
	}
	if err := s.Node.PromoteTo(epoch, reason); err != nil {
		// The promise moved on while the claim was in flight (e.g. this node
		// deferred its self-promise to a longer candidate).
		return &ElectionLost{Epoch: epoch, Winner: winner,
			Reason: "promotion refused: " + err.Error()}
	}
	s.log().Info("claim won; promoted", "epoch", epoch, "grants", grants, "reason", reason)
	return nil
}

// fence sends one fencing claim to a peer.
func (s *Supervisor) fence(ctx context.Context, peer string, epoch uint32, journalBytes int64) (FenceResponse, error) {
	body, err := json.Marshal(FenceRequest{
		Epoch: epoch, Candidate: s.Self, JournalBytes: journalBytes,
	})
	if err != nil {
		return FenceResponse{}, err
	}
	rctx, cancel := context.WithTimeout(ctx, s.probeTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost,
		NormalizeURL(peer)+FencePath, bytes.NewReader(body))
	if err != nil {
		return FenceResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := s.client().Do(req)
	if err != nil {
		return FenceResponse{}, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return FenceResponse{}, fmt.Errorf("%s%s: %s", peer, FencePath, res.Status)
	}
	var resp FenceResponse
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		return FenceResponse{}, err
	}
	return resp, nil
}

// probeAll probes every group peer, plus the tail target when it is not a
// group member (followers may dial their leader through a relay or proxy
// address). Probes run concurrently; one slow member cannot starve the
// round. Callers hold s.mu.
func (s *Supervisor) probeAll(ctx context.Context, st NodeStatus) []peerView {
	targets := make([]string, 0, len(s.Group)+1)
	for _, m := range s.Group {
		if NormalizeURL(m) != NormalizeURL(s.Self) {
			targets = append(targets, m)
		}
	}
	if tail := NormalizeURL(st.Leader); tail != "" && tail != NormalizeURL(s.Self) && !s.inGroup(tail) {
		targets = append(targets, tail)
	}
	views := make([]peerView, len(targets))
	var wg sync.WaitGroup
	for i, url := range targets {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			views[i] = s.probe(ctx, url)
		}(i, url)
	}
	wg.Wait()
	return views
}

// probe reads one member's replication status.
func (s *Supervisor) probe(ctx context.Context, url string) peerView {
	v := peerView{URL: url}
	rctx, cancel := context.WithTimeout(ctx, s.probeTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet,
		NormalizeURL(url)+replicationPath, nil)
	if err != nil {
		v.Err = err
		return v
	}
	res, err := s.client().Do(req)
	if err != nil {
		v.Err = err
		return v
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		v.Err = fmt.Errorf("%s%s: %s", url, replicationPath, res.Status)
		return v
	}
	var dto probeDTO
	if err := json.NewDecoder(res.Body).Decode(&dto); err != nil {
		v.Err = err
		return v
	}
	v.Role = dto.Role
	v.Epoch = dto.Epoch
	v.PromisedEpoch = dto.PromisedEpoch
	v.JournalBytes = dto.JournalBytes
	v.Fenced = dto.Fenced
	v.Addr = dto.Addr
	if v.Addr == "" {
		v.Addr = NormalizeURL(url)
	}
	v.TailConnected = dto.Tail != nil && dto.Tail.Connected
	return v
}

// groupLeader picks the view to follow: the reachable, unfenced leader with
// the highest epoch at or beyond floor.
func groupLeader(views []peerView, floor uint32) (peerView, bool) {
	var best peerView
	var found bool
	for _, v := range views {
		if v.Err != nil || v.Fenced || v.Role != "leader" || v.Epoch < floor {
			continue
		}
		if !found || v.Epoch > best.Epoch {
			best, found = v, true
		}
	}
	return best, found
}

// inGroup reports whether addr is a group member.
func (s *Supervisor) inGroup(addr string) bool {
	addr = NormalizeURL(addr)
	for _, m := range s.Group {
		if NormalizeURL(m) == addr {
			return true
		}
	}
	return false
}

// jitter is a seed-deterministic holdoff fraction in [0, FailAfter).
func (s *Supervisor) jitter() time.Duration {
	if s.rng == nil {
		return 0
	}
	return time.Duration(s.rng.Int63n(int64(s.failAfter())))
}
