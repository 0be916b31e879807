package failover

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeNode records every Node call the supervisor makes.
type fakeNode struct {
	mu        sync.Mutex
	st        NodeStatus
	confirms  int
	fences    []uint32
	winners   []string
	retargets []string
	promotes  []uint32
	promise   func(epoch uint32, candidate string, bytes int64) FenceResponse
}

func (n *fakeNode) Status() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st
}

func (n *fakeNode) Confirm() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.confirms++
	n.st.Confirmed = true
}

func (n *fakeNode) Fence(epoch uint32, winner string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fences = append(n.fences, epoch)
	n.winners = append(n.winners, winner)
	n.st.Fenced = true
}

func (n *fakeNode) Retarget(leader string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.retargets = append(n.retargets, leader)
}

func (n *fakeNode) Promise(epoch uint32, candidate string, bytes int64) FenceResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.promise != nil {
		return n.promise(epoch, candidate, bytes)
	}
	return FenceResponse{Granted: true, Epoch: n.st.Epoch, JournalBytes: n.st.JournalBytes}
}

func (n *fakeNode) PromoteTo(epoch uint32, reason string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.promotes = append(n.promotes, epoch)
	n.st.Role = "leader"
	n.st.Epoch = epoch
	return nil
}

// peer is an httptest group member: a fixed replication status plus an
// optional fence handler, recording every claim it receives.
type peer struct {
	srv *httptest.Server

	mu     sync.Mutex
	dto    probeDTO
	grant  bool
	holder string
	claims []FenceRequest
}

func newPeer(t *testing.T, dto probeDTO, grant bool, holder string) *peer {
	t.Helper()
	p := &peer{dto: dto, grant: grant, holder: holder}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+replicationPath, func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		d := p.dto
		p.mu.Unlock()
		if d.Addr == "" {
			d.Addr = p.srv.URL
		}
		json.NewEncoder(w).Encode(d)
	})
	mux.HandleFunc("POST "+FencePath, func(w http.ResponseWriter, r *http.Request) {
		var req FenceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p.mu.Lock()
		p.claims = append(p.claims, req)
		resp := FenceResponse{Granted: p.grant, Epoch: p.dto.Epoch,
			JournalBytes: p.dto.JournalBytes, Holder: p.holder}
		p.mu.Unlock()
		json.NewEncoder(w).Encode(resp)
	})
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)
	return p
}

func (p *peer) lastClaim() (FenceRequest, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.claims) == 0 {
		return FenceRequest{}, false
	}
	return p.claims[len(p.claims)-1], true
}

// deadURL returns a member URL that refuses connections instantly.
func deadURL(t *testing.T) string {
	t.Helper()
	s := httptest.NewServer(http.NotFoundHandler())
	u := s.URL
	s.Close()
	return u
}

func newSup(node Node, self string, group []string) *Supervisor {
	return &Supervisor{
		Node: node, Self: self, Group: group,
		ProbeEvery: 10 * time.Millisecond,
		FailAfter:  20 * time.Millisecond,
		Seed:       1,
	}
}

// TestNormalizeURL: scheme promotion and slash trimming.
func TestNormalizeURL(t *testing.T) {
	cases := map[string]string{
		"":                       "",
		"  ":                     "",
		"127.0.0.1:7133":         "http://127.0.0.1:7133",
		"http://a:1/":            "http://a:1",
		"https://b.example:2///": "https://b.example:2",
	}
	for in, want := range cases {
		if got := NormalizeURL(in); got != want {
			t.Errorf("NormalizeURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestElectionPromotesLongestSurvivor: the leader dies; the follower holding
// the longest journal assembles a death quorum and claims the next epoch.
func TestElectionPromotesLongestSurvivor(t *testing.T) {
	dead := deadURL(t)
	other := newPeer(t, probeDTO{
		Role: "follower", JournalBytes: 50, Epoch: 1,
		Tail: &struct {
			Connected bool `json:"connected"`
		}{Connected: false},
	}, true, "")

	self := "http://127.0.0.1:59991"
	node := &fakeNode{st: NodeStatus{
		Role: "follower", Epoch: 1, JournalBytes: 100,
		Leader: dead, Connected: false,
	}}
	sup := newSup(node, self, []string{self, other.srv.URL, dead})

	ctx := context.Background()
	sup.round(ctx) // arms deadSince
	if len(node.promotes) != 0 {
		t.Fatal("claimed before FailAfter elapsed")
	}
	time.Sleep(30 * time.Millisecond)
	sup.round(ctx) // FailAfter elapsed: quorum, claim, promote

	if len(node.promotes) != 1 || node.promotes[0] != 2 {
		t.Fatalf("promotes = %v, want [2]", node.promotes)
	}
	claim, ok := other.lastClaim()
	if !ok {
		t.Fatal("peer never saw a fencing claim")
	}
	if claim.Epoch != 2 || claim.Candidate != self || claim.JournalBytes != 100 {
		t.Fatalf("claim = %+v, want epoch 2 candidate %s bytes 100", claim, self)
	}
}

// TestElectionStandsBackForLongerPeer: a follower that sees a better-qualified
// survivor must not claim — it holds off so the longer journal wins.
func TestElectionStandsBackForLongerPeer(t *testing.T) {
	dead := deadURL(t)
	longer := newPeer(t, probeDTO{
		Role: "follower", JournalBytes: 500, Epoch: 1,
		Tail: &struct {
			Connected bool `json:"connected"`
		}{Connected: false},
	}, true, "")

	self := "http://127.0.0.1:59992"
	node := &fakeNode{st: NodeStatus{
		Role: "follower", Epoch: 1, JournalBytes: 100,
		Leader: dead, Connected: false,
	}}
	sup := newSup(node, self, []string{self, longer.srv.URL, dead})

	ctx := context.Background()
	sup.round(ctx)
	time.Sleep(30 * time.Millisecond)
	sup.round(ctx)

	if len(node.promotes) != 0 {
		t.Fatalf("promoted %v despite a longer peer", node.promotes)
	}
	if sup.holdUntil.IsZero() {
		t.Fatal("no holdoff recorded while standing back")
	}
	if _, ok := longer.lastClaim(); ok {
		t.Fatal("sent a fencing claim while standing back")
	}
}

// TestElectionNeedsQuorum: with every peer unreachable there is no death
// quorum, so the lone survivor must never promote itself (split-brain guard).
func TestElectionNeedsQuorum(t *testing.T) {
	dead := deadURL(t)
	deadPeer := deadURL(t)

	self := "http://127.0.0.1:59993"
	node := &fakeNode{st: NodeStatus{
		Role: "follower", Epoch: 1, JournalBytes: 100,
		Leader: dead, Connected: false,
	}}
	sup := newSup(node, self, []string{self, deadPeer, dead})

	ctx := context.Background()
	sup.round(ctx)
	time.Sleep(30 * time.Millisecond)
	sup.round(ctx)
	if len(node.promotes) != 0 {
		t.Fatalf("promoted %v without a quorum", node.promotes)
	}
}

// TestNoElectionWhileLeaderProbesAlive: a dropped stream alone is not death —
// while the tail target still answers probes as an unfenced leader, the
// follower must keep waiting (and retargeting is a no-op at the same addr).
func TestNoElectionWhileLeaderProbesAlive(t *testing.T) {
	leader := newPeer(t, probeDTO{Role: "leader", JournalBytes: 100, Epoch: 1}, false, "")

	self := "http://127.0.0.1:59994"
	node := &fakeNode{st: NodeStatus{
		Role: "follower", Epoch: 1, JournalBytes: 100,
		Leader: leader.srv.URL, Connected: false,
	}}
	sup := newSup(node, self, []string{self, leader.srv.URL, deadURL(t)})

	ctx := context.Background()
	sup.round(ctx)
	time.Sleep(30 * time.Millisecond)
	sup.round(ctx)
	if len(node.promotes) != 0 {
		t.Fatalf("promoted %v while the leader still answered probes", node.promotes)
	}
	if len(node.retargets) != 0 {
		t.Fatalf("retargeted %v onto the leader already tailed", node.retargets)
	}
}

// TestRetargetOntoNewLeader: a follower whose tail is down re-points at the
// group's current leader as soon as one exists — no election, no operator.
func TestRetargetOntoNewLeader(t *testing.T) {
	dead := deadURL(t)
	newLead := newPeer(t, probeDTO{Role: "leader", JournalBytes: 200, Epoch: 2}, false, "")

	self := "http://127.0.0.1:59995"
	node := &fakeNode{st: NodeStatus{
		Role: "follower", Epoch: 1, JournalBytes: 100,
		Leader: dead, Connected: false,
	}}
	sup := newSup(node, self, []string{self, newLead.srv.URL, dead})

	sup.round(context.Background())
	if len(node.retargets) != 1 || node.retargets[0] != newLead.srv.URL {
		t.Fatalf("retargets = %v, want [%s]", node.retargets, newLead.srv.URL)
	}
	if len(node.promotes) != 0 {
		t.Fatalf("promoted %v instead of retargeting", node.promotes)
	}
}

// TestLeaderFencesOnHigherEpoch: a leader that observes a peer serving a
// higher epoch has been deposed and must fence itself, naming the winner.
func TestLeaderFencesOnHigherEpoch(t *testing.T) {
	winner := newPeer(t, probeDTO{Role: "leader", JournalBytes: 300, Epoch: 5}, false, "")

	self := "http://127.0.0.1:59996"
	node := &fakeNode{st: NodeStatus{
		Role: "leader", Epoch: 3, JournalBytes: 300, Confirmed: true,
	}}
	sup := newSup(node, self, []string{self, winner.srv.URL, deadURL(t)})

	sup.round(context.Background())
	if len(node.fences) != 1 || node.fences[0] != 5 {
		t.Fatalf("fences = %v, want [5]", node.fences)
	}
	if node.winners[0] != winner.srv.URL {
		t.Fatalf("fence winner = %q, want %q", node.winners[0], winner.srv.URL)
	}
}

// TestLeaderConfirmRequiresQuorum: an unconfirmed leader confirms only after
// a probe round reaches a majority with no higher epoch or claim in flight.
func TestLeaderConfirmRequiresQuorum(t *testing.T) {
	self := "http://127.0.0.1:59997"

	// Round 1: both peers unreachable — reached = 1 < quorum 2, no confirm.
	node := &fakeNode{st: NodeStatus{Role: "leader", Epoch: 2, JournalBytes: 10}}
	sup := newSup(node, self, []string{self, deadURL(t), deadURL(t)})
	sup.round(context.Background())
	if node.confirms != 0 {
		t.Fatal("confirmed without reaching a quorum")
	}

	// Round 2: a reachable follower with an outstanding higher promise — the
	// contested term must not confirm.
	promised := newPeer(t, probeDTO{
		Role: "follower", JournalBytes: 10, Epoch: 2, PromisedEpoch: 3,
	}, false, "")
	node2 := &fakeNode{st: NodeStatus{Role: "leader", Epoch: 2, JournalBytes: 10}}
	sup2 := newSup(node2, self, []string{self, promised.srv.URL, deadURL(t)})
	sup2.round(context.Background())
	if node2.confirms != 0 {
		t.Fatal("confirmed while a higher-epoch claim was outstanding")
	}

	// Round 3: a clean follower at our epoch — quorum reached, confirm.
	clean := newPeer(t, probeDTO{Role: "follower", JournalBytes: 10, Epoch: 2}, false, "")
	node3 := &fakeNode{st: NodeStatus{Role: "leader", Epoch: 2, JournalBytes: 10}}
	sup3 := newSup(node3, self, []string{self, clean.srv.URL, deadURL(t)})
	sup3.round(context.Background())
	if node3.confirms != 1 {
		t.Fatalf("confirms = %d, want 1", node3.confirms)
	}
}

// TestManualPromoteLostNamesWinner: a claim denied by the group surfaces
// ElectionLost with the holder's address, so the caller can redirect.
func TestManualPromoteLostNamesWinner(t *testing.T) {
	winner := "http://winner.example:1"
	denyA := newPeer(t, probeDTO{Role: "follower", JournalBytes: 900, Epoch: 4}, false, winner)
	denyB := newPeer(t, probeDTO{Role: "follower", JournalBytes: 900, Epoch: 4}, false, winner)

	self := "http://127.0.0.1:59998"
	node := &fakeNode{st: NodeStatus{Role: "follower", Epoch: 4, JournalBytes: 100}}
	sup := newSup(node, self, []string{self, denyA.srv.URL, denyB.srv.URL})

	err := sup.ManualPromote(context.Background())
	var lost *ElectionLost
	if !errors.As(err, &lost) {
		t.Fatalf("ManualPromote = %v, want *ElectionLost", err)
	}
	if lost.Winner != winner {
		t.Fatalf("Winner = %q, want %q", lost.Winner, winner)
	}
	if lost.Epoch != 5 {
		t.Fatalf("claimed epoch %d, want maxSeen+1 = 5", lost.Epoch)
	}
	if len(node.promotes) != 0 {
		t.Fatalf("promoted %v despite losing the claim", node.promotes)
	}
}

// TestManualPromoteStandsBackForLongerClaim: a manual promote that sees a
// longer follower's claim in flight loses at once, naming that follower,
// instead of claiming a higher epoch that would only supersede it.
func TestManualPromoteStandsBackForLongerClaim(t *testing.T) {
	longer := newPeer(t, probeDTO{Role: "follower", JournalBytes: 900, Epoch: 1, PromisedEpoch: 2}, true, "")
	dead := deadURL(t)

	self := "http://127.0.0.1:60001"
	node := &fakeNode{st: NodeStatus{Role: "follower", Epoch: 1, JournalBytes: 100}}
	sup := newSup(node, self, []string{self, longer.srv.URL, dead})

	err := sup.ManualPromote(context.Background())
	var lost *ElectionLost
	if !errors.As(err, &lost) || lost.Winner != longer.srv.URL {
		t.Fatalf("ManualPromote = %v, want ElectionLost naming %s", err, longer.srv.URL)
	}
	if _, claimed := longer.lastClaim(); claimed || len(node.promotes) != 0 {
		t.Fatalf("claimed or promoted past a longer follower's claim (promotes %v)", node.promotes)
	}
}

// TestClaimFoldsDenialEpochs: even a failed claim advances the epoch floor,
// so the next claim does not reuse a term the group has moved past.
func TestClaimFoldsDenialEpochs(t *testing.T) {
	ahead := newPeer(t, probeDTO{Role: "follower", JournalBytes: 10, Epoch: 9}, false, "")

	self := "http://127.0.0.1:59999"
	node := &fakeNode{st: NodeStatus{Role: "follower", Epoch: 1, JournalBytes: 10}}
	sup := newSup(node, self, []string{self, ahead.srv.URL, deadURL(t)})

	// maxSeen becomes 9 via the probe; the claim must target 10, and with
	// one grant (local) of the required 2 it loses.
	err := sup.ManualPromote(context.Background())
	var lost *ElectionLost
	if !errors.As(err, &lost) {
		t.Fatalf("ManualPromote = %v, want *ElectionLost", err)
	}
	if lost.Epoch != 10 {
		t.Fatalf("claimed epoch %d, want 10", lost.Epoch)
	}
	sup.mu.Lock()
	defer sup.mu.Unlock()
	if sup.maxSeen < 9 {
		t.Fatalf("maxSeen = %d, want >= 9", sup.maxSeen)
	}
}

// TestFencedSupervisorIdles: a fenced node's supervisor must do nothing — no
// probes acted on, no elections, no retargets.
func TestFencedSupervisorIdles(t *testing.T) {
	self := "http://127.0.0.1:60000"
	node := &fakeNode{st: NodeStatus{Role: "follower", Fenced: true, Leader: deadURL(t)}}
	sup := newSup(node, self, []string{self, deadURL(t), deadURL(t)})
	sup.round(context.Background())
	time.Sleep(30 * time.Millisecond)
	sup.round(context.Background())
	if len(node.promotes)+len(node.retargets)+node.confirms != 0 {
		t.Fatalf("fenced supervisor acted: %+v", node)
	}
}
