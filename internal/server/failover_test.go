package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"abg/internal/persist"
)

// chaosProxy is a TCP forwarder standing in front of one daemon. It solves
// two test problems at once: the group membership must be configured before
// any daemon binds its :0-assigned port (the proxy's address is known
// up-front), and a partition must be inducible without touching the daemon
// (setDown severs every established stream and refuses new ones, exactly
// what an unplugged network cable does).
type chaosProxy struct {
	t      *testing.T
	ln     net.Listener
	mu     sync.Mutex
	target string
	down   bool
	conns  map[net.Conn]struct{}
}

func newChaosProxy(t *testing.T) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &chaosProxy{t: t, ln: ln, conns: map[net.Conn]struct{}{}}
	t.Cleanup(func() {
		ln.Close()
		p.setDown(true)
	})
	go p.accept()
	return p
}

func (p *chaosProxy) URL() string { return "http://" + p.ln.Addr().String() }

func (p *chaosProxy) setTarget(base string) {
	p.mu.Lock()
	p.target = strings.TrimPrefix(base, "http://")
	p.mu.Unlock()
}

// setDown(true) partitions the fronted daemon: established connections are
// severed and new ones closed on accept. setDown(false) heals it.
func (p *chaosProxy) setDown(down bool) {
	p.mu.Lock()
	p.down = down
	if down {
		for c := range p.conns {
			c.Close()
		}
		p.conns = map[net.Conn]struct{}{}
	}
	p.mu.Unlock()
}

func (p *chaosProxy) accept() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.serve(c)
	}
}

func (p *chaosProxy) serve(c net.Conn) {
	p.mu.Lock()
	target, down := p.target, p.down
	p.mu.Unlock()
	if down || target == "" {
		c.Close()
		return
	}
	up, err := net.Dial("tcp", target)
	if err != nil {
		c.Close()
		return
	}
	p.mu.Lock()
	if p.down {
		p.mu.Unlock()
		c.Close()
		up.Close()
		return
	}
	p.conns[c] = struct{}{}
	p.conns[up] = struct{}{}
	p.mu.Unlock()
	done := make(chan struct{}, 2)
	go func() { io.Copy(up, c); done <- struct{}{} }()
	go func() { io.Copy(c, up); done <- struct{}{} }()
	<-done
	c.Close()
	up.Close()
	<-done
	p.mu.Lock()
	delete(p.conns, c)
	delete(p.conns, up)
	p.mu.Unlock()
}

// failoverCfg is the grouped engine shape of the failover tests: the
// replication tests' virtual-clock config plus supervisor timers fast
// enough that an election completes in a few hundred milliseconds.
func failoverCfg(dir string, group []string, advertise string) Config {
	cfg := replCfg(dir, "")
	cfg.Group = group
	cfg.Advertise = advertise
	cfg.ProbeEvery = 20 * time.Millisecond
	cfg.FailAfter = 150 * time.Millisecond
	cfg.FailoverSeed = 1
	return cfg
}

// waitRepl polls base's replication status until ok accepts it.
func waitRepl(t *testing.T, base, what string, ok func(ReplicationDTO) bool) ReplicationDTO {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var dto ReplicationDTO
	for time.Now().Before(deadline) {
		getJSON(t, base+"/api/v1/replication", &dto)
		if ok(dto) {
			return dto
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s: timed out waiting for %s (%+v)", base, what, dto)
	return dto
}

type member struct {
	srv  *Server
	base string // direct URL the test talks to
	dir  string // journal directory
	adv  string // advertised (proxy) URL peers and clients dial
}

// waitElected polls the members until one serves as a confirmed, unfenced
// leader at or beyond epoch, and returns its index.
func waitElected(t *testing.T, members []member, epoch uint32) int {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for i, m := range members {
			var dto ReplicationDTO
			getJSON(t, m.base+"/api/v1/replication", &dto)
			if dto.Role == "leader" && dto.Confirmed && !dto.Fenced && dto.Epoch >= epoch {
				return i
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no member reached confirmed leadership at epoch %d", epoch)
	return -1
}

// TestGroupElectsOnLeaderDeath is the tentpole guarantee: in a three-member
// group, killing the leader costs zero operator action. The survivors
// detect the death, a quorum promotes the caught-up follower under epoch 2,
// the loser retargets onto the winner, writes resume with dense ids, and
// the promoted run still equals the reference replay of its journal.
func TestGroupElectsOnLeaderDeath(t *testing.T) {
	pA, pB, pC := newChaosProxy(t), newChaosProxy(t), newChaosProxy(t)
	group := []string{pA.URL(), pB.URL(), pC.URL()}

	cfg := failoverCfg(t.TempDir(), group, pA.URL())
	s1, leaderBase := startCrashable(t, cfg)
	pA.setTarget(leaderBase)
	s2, bBase, bDir := startFollower(t, failoverCfg("", group, pB.URL()), pA.URL())
	pB.setTarget(bBase)
	s3, cBase, cDir := startFollower(t, failoverCfg("", group, pC.URL()), pA.URL())
	pC.setTarget(cBase)

	// A grouped leader boots unconfirmed: its first clean probe round (a
	// quorum reachable, no higher epoch anywhere) opens the write gate.
	waitRepl(t, leaderBase, "confirmed leader", func(d ReplicationDTO) bool {
		return d.Role == "leader" && d.Confirmed && d.Epoch == 1
	})

	for i := 0; i < 4; i++ {
		submitKeyed(t, leaderBase, i)
	}
	waitCompleted(t, leaderBase, 4)
	size := s1.journal.Size()
	waitReplBytes(t, bBase, size)
	waitReplBytes(t, cBase, size)
	crash(t, s1)

	// Nobody posts /promote. Within FailAfter the survivors elect.
	members := []member{
		{s2, bBase, bDir, pB.URL()},
		{s3, cBase, cDir, pC.URL()},
	}
	w := waitElected(t, members, 2)
	win, lose := members[w], members[1-w]
	var dto ReplicationDTO
	getJSON(t, win.base+"/api/v1/replication", &dto)
	if dto.Epoch != 2 || dto.Promotions != 1 {
		t.Fatalf("winner %+v, want epoch 2 with exactly 1 promotion", dto)
	}
	// Every response now carries the new term.
	resp, err := http.Get(win.base + "/api/v1/state")
	if err != nil {
		t.Fatalf("winner state: %v", err)
	}
	resp.Body.Close()
	if e := resp.Header.Get(EpochHeader); e != "2" {
		t.Fatalf("winner %s = %q, want 2", EpochHeader, e)
	}

	// The losing follower retargets onto the winner, no operator involved.
	waitRepl(t, lose.base, "retarget onto winner", func(d ReplicationDTO) bool {
		return d.Role == "follower" && d.Tail != nil &&
			d.Tail.Leader == win.adv && d.Tail.Connected
	})

	// Writes resume against the new leader with dense ids.
	for i := 4; i < 8; i++ {
		submitKeyed(t, win.base, i)
	}
	waitCompleted(t, win.base, 8)
	waitReplBytes(t, lose.base, win.srv.journal.Size())

	// Drain the new leader; the survivor drains out with it. The surviving
	// journals are byte-identical and the promoted run equals the
	// uninterrupted reference replay.
	win.srv.Drain()
	if err := win.srv.Wait(); err != nil {
		t.Fatalf("winner Wait: %v", err)
	}
	loseDone := make(chan error, 1)
	go func() { loseDone <- lose.srv.Wait() }()
	select {
	case err := <-loseDone:
		if err != nil {
			t.Fatalf("survivor Wait: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("survivor did not drain out with the new leader")
	}
	wRaw, _ := os.ReadFile(filepath.Join(win.dir, persist.JournalFile))
	lRaw, _ := os.ReadFile(filepath.Join(lose.dir, persist.JournalFile))
	if len(wRaw) == 0 || !bytes.Equal(wRaw, lRaw) {
		t.Fatalf("surviving journals differ: winner %d bytes, loser %d", len(wRaw), len(lRaw))
	}
	live := liveStatuses(win.srv)
	ref, err := ReferenceResult(win.dir)
	if err != nil {
		t.Fatalf("ReferenceResult: %v", err)
	}
	if len(live) != 8 || !reflect.DeepEqual(live, ref) {
		t.Fatalf("promoted run diverged from reference:\n live %+v\n ref  %+v", live, ref)
	}
	if l := liveStatuses(lose.srv); !reflect.DeepEqual(live, l) {
		t.Fatalf("survivor diverged from winner:\n winner   %+v\n survivor %+v", live, l)
	}
}

// TestConcurrentPromoteSerializes: two operators race POST /api/v1/promote
// against two followers of the same dead leader. The claims serialize
// through the quorum's promises — exactly one wins (the longer journal
// prefix), and the loser's 409 names the winner.
func TestConcurrentPromoteSerializes(t *testing.T) {
	pA, pB, pC := newChaosProxy(t), newChaosProxy(t), newChaosProxy(t)
	feedC := newChaosProxy(t) // C's private feed: cuttable without hiding A
	group := []string{pA.URL(), pB.URL(), pC.URL()}

	// Inert supervisors on the followers (slow probes, a minute of grace):
	// every promotion below is operator-driven, never the watchdog's.
	aCfg := failoverCfg(t.TempDir(), group, pA.URL())
	aCfg.FailAfter = time.Minute
	s1, leaderBase := startCrashable(t, aCfg)
	pA.setTarget(leaderBase)
	feedC.setTarget(leaderBase)
	bCfg := failoverCfg("", group, pB.URL())
	bCfg.ProbeEvery, bCfg.FailAfter = 30*time.Second, time.Minute
	s2, bBase, _ := startFollower(t, bCfg, pA.URL())
	pB.setTarget(bBase)
	cCfg := failoverCfg("", group, pC.URL())
	cCfg.ProbeEvery, cCfg.FailAfter = 30*time.Second, time.Minute
	_, cBase, _ := startFollower(t, cCfg, feedC.URL())
	pC.setTarget(cBase)

	waitRepl(t, leaderBase, "confirmed leader", func(d ReplicationDTO) bool {
		return d.Role == "leader" && d.Confirmed
	})
	for i := 0; i < 2; i++ {
		submitKeyed(t, leaderBase, i)
	}
	waitCompleted(t, leaderBase, 2)
	sz1 := s1.journal.Size()
	waitReplBytes(t, bBase, sz1)
	waitReplBytes(t, cBase, sz1)

	// Cut C's feed, then keep writing: B ends up with the longer prefix.
	feedC.setDown(true)
	for i := 2; i < 4; i++ {
		submitKeyed(t, leaderBase, i)
	}
	waitCompleted(t, leaderBase, 4)
	sz2 := s1.journal.Size()
	if sz2 <= sz1 {
		t.Fatalf("journal did not grow: %d then %d", sz1, sz2)
	}
	waitReplBytes(t, bBase, sz2)
	crash(t, s1)

	type promoteResult struct {
		code   int
		winner string
		dto    ReplicationDTO
	}
	promote := func(base string) promoteResult {
		resp, err := http.Post(base+"/api/v1/promote", "application/json", nil)
		if err != nil {
			t.Errorf("promote %s: %v", base, err)
			return promoteResult{}
		}
		defer resp.Body.Close()
		r := promoteResult{code: resp.StatusCode, winner: resp.Header.Get(WinnerHeader)}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&r.dto); err != nil {
				t.Errorf("promote %s: decode: %v", base, err)
			}
		}
		return r
	}
	var rb, rc promoteResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); rb = promote(bBase) }()
	go func() { defer wg.Done(); rc = promote(cBase) }()
	wg.Wait()

	// B holds the longer journal: it must win no matter how the two claims
	// interleaved, and C's refusal must point the operator at B. (The new
	// epoch is sealed on the follow goroutine right after the 200, so it is
	// asserted via the poll below, not the instant response.)
	if rb.code != http.StatusOK || rb.dto.Role != "leader" {
		t.Fatalf("longer-prefix promote = %d %+v, want 200 leader", rb.code, rb.dto)
	}
	if rc.code != http.StatusConflict {
		t.Fatalf("shorter-prefix promote = %d, want 409", rc.code)
	}
	if rc.winner != pB.URL() {
		t.Fatalf("loser's %s = %q, want winner %q", WinnerHeader, rc.winner, pB.URL())
	}
	if dto := waitRepl(t, bBase, "winner serving", func(d ReplicationDTO) bool {
		return d.Role == "leader" && d.Confirmed && d.Epoch >= 2
	}); dto.Promotions != 1 {
		t.Fatalf("winner promotions = %d, want 1", dto.Promotions)
	}
	var cDto ReplicationDTO
	getJSON(t, cBase+"/api/v1/replication", &cDto)
	if cDto.Role != "follower" {
		t.Fatalf("loser role = %q, want follower", cDto.Role)
	}

	// A second promote against the loser keeps losing: the winner is now a
	// reachable live leader and denies every claim.
	if again := promote(cBase); again.code != http.StatusConflict || again.winner != pB.URL() {
		t.Fatalf("re-promote = %d winner %q, want 409 naming %q", again.code, again.winner, pB.URL())
	}

	// The winner's write gate is open.
	submitKeyed(t, bBase, 4)
	waitCompleted(t, bBase, 5)
	_ = s2
}

// TestLiveLeaderNamesItself: an unfenced leader denies every claim and
// names itself as the holder — also a claim at its own epoch, which is what
// a concurrent claimant sees right after the winner sealed that epoch.
func TestLiveLeaderNamesItself(t *testing.T) {
	const self = "http://leader.test:7133"
	s, err := New(Config{Advertise: self})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.finish()
	for _, epoch := range []uint32{s.Epoch(), s.Epoch() + 1} {
		resp := s.Promise(epoch, "http://other.test:7134", 0)
		if resp.Granted || resp.Holder != self {
			t.Fatalf("Promise(%d) = %+v, want a denial naming %s", epoch, resp, self)
		}
	}
}

// TestSplitBrainFencesOldLeader: partition a leader that keeps accepting a
// write, let the majority elect a successor, and heal. The old leader must
// fence itself (409s naming the successor, "fenced" health, non-zero exit),
// and the write it acked during the partition must never reach a surviving
// journal — the survivors stay byte-identical and their id sequence shows
// no trace of it.
func TestSplitBrainFencesOldLeader(t *testing.T) {
	pA, pB, pC := newChaosProxy(t), newChaosProxy(t), newChaosProxy(t)
	group := []string{pA.URL(), pB.URL(), pC.URL()}

	aDir := t.TempDir()
	aCfg := failoverCfg(aDir, group, pA.URL())
	// Slow probes on A: the deposed leader takes a beat to learn of the new
	// epoch, which is the split-brain window the acked-but-lost write needs.
	aCfg.ProbeEvery = 250 * time.Millisecond
	s1, aBase := startCrashable(t, aCfg)
	pA.setTarget(aBase)
	s2, bBase, bDir := startFollower(t, failoverCfg("", group, pB.URL()), pA.URL())
	pB.setTarget(bBase)
	s3, cBase, cDir := startFollower(t, failoverCfg("", group, pC.URL()), pA.URL())
	pC.setTarget(cBase)

	waitRepl(t, aBase, "confirmed leader", func(d ReplicationDTO) bool {
		return d.Role == "leader" && d.Confirmed
	})
	for i := 0; i < 2; i++ {
		submitKeyed(t, aBase, i)
	}
	waitCompleted(t, aBase, 2)
	size := s1.journal.Size()
	waitReplBytes(t, bBase, size)
	waitReplBytes(t, cBase, size)

	// Partition the leader: peers cannot reach A, but A keeps running.
	pA.setDown(true)

	// The split-brain write: A has not learned of its deposition yet, so it
	// still acks — into a journal no survivor will ever mirror.
	code, ack, bad := postJobs(t, aBase, JobRequest{
		Kind: "batch", Name: "split-brain-lost", Seed: 99, Key: "split-brain-lost",
	})
	if code != http.StatusAccepted {
		t.Fatalf("write to partitioned leader: status %d (%q)", code, bad.Error)
	}
	if len(ack.IDs) != 1 || ack.IDs[0] != 2 {
		t.Fatalf("write to partitioned leader: ids %v, want [2]", ack.IDs)
	}

	// The majority elects without A.
	members := []member{
		{s2, bBase, bDir, pB.URL()},
		{s3, cBase, cDir, pC.URL()},
	}
	w := waitElected(t, members, 2)
	win, lose := members[w], members[1-w]

	// A's own probes discover epoch 2 and fence it: health flips to
	// "fenced" and the daemon exits non-zero.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var h HealthDTO
		getJSON(t, aBase+"/healthz", &h)
		if h.Status == "fenced" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old leader never fenced itself: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Writes to the fenced daemon are refused while it still listens (Wait
	// has not shut the listener down yet — in production this is the window
	// between fencing and process exit).
	code, _, bad = postJobs(t, aBase, JobRequest{Kind: "batch", Name: "after-fence", Seed: 1, Key: "after-fence"})
	if code != http.StatusConflict || !strings.Contains(bad.Error, "fenced") {
		t.Fatalf("write to fenced leader = %d (%q), want 409 fenced", code, bad.Error)
	}

	// The fenced daemon exits non-zero, naming the fence.
	waitDone := make(chan error, 1)
	go func() { waitDone <- s1.Wait() }()
	select {
	case err := <-waitDone:
		if err == nil || !strings.Contains(err.Error(), "fenced") {
			t.Fatalf("old leader Wait = %v, want fenced error", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("old leader did not stop after fencing")
	}

	// Heal the partition: the fenced daemon stays fenced, the new term is
	// undisturbed, and writes continue on the winner — job id 2 is reissued,
	// proving the lost write left no hole in the surviving history.
	pA.setDown(false)
	for i := 2; i < 4; i++ {
		submitKeyed(t, win.base, i)
	}
	waitCompleted(t, win.base, 4)
	waitRepl(t, lose.base, "retarget onto winner", func(d ReplicationDTO) bool {
		return d.Role == "follower" && d.Tail != nil && d.Tail.Leader == win.adv
	})
	waitReplBytes(t, lose.base, win.srv.journal.Size())

	win.srv.Drain()
	if err := win.srv.Wait(); err != nil {
		t.Fatalf("winner Wait: %v", err)
	}
	loseDone := make(chan error, 1)
	go func() { loseDone <- lose.srv.Wait() }()
	select {
	case err := <-loseDone:
		if err != nil {
			t.Fatalf("survivor Wait: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("survivor did not drain out with the winner")
	}

	wRaw, _ := os.ReadFile(filepath.Join(win.dir, persist.JournalFile))
	lRaw, _ := os.ReadFile(filepath.Join(lose.dir, persist.JournalFile))
	aRaw, _ := os.ReadFile(filepath.Join(aDir, persist.JournalFile))
	if len(wRaw) == 0 || !bytes.Equal(wRaw, lRaw) {
		t.Fatalf("surviving journals differ: winner %d bytes, survivor %d", len(wRaw), len(lRaw))
	}
	if bytes.Contains(wRaw, []byte("split-brain-lost")) {
		t.Fatal("fenced write leaked into a surviving journal")
	}
	if !bytes.Contains(aRaw, []byte("split-brain-lost")) {
		t.Fatal("split-brain write missing from the old leader's journal; the test exercised nothing")
	}
	live := liveStatuses(win.srv)
	ref, err := ReferenceResult(win.dir)
	if err != nil {
		t.Fatalf("ReferenceResult: %v", err)
	}
	if len(live) != 4 || !reflect.DeepEqual(live, ref) {
		t.Fatalf("post-failover run diverged from reference:\n live %+v\n ref  %+v", live, ref)
	}
}

// TestReadYourWrites: a write acks with its commit offset; a read carrying
// that offset in X-Abg-Min-Offset is answered by a lagging follower only
// once its applied prefix reaches it — immediately after catch-up, or a 503
// with Retry-After when the bound expires. Never a stale 200.
func TestReadYourWrites(t *testing.T) {
	cfg := replCfg(t.TempDir(), "")
	s1, leaderBase := startCrashable(t, cfg)
	feed := newChaosProxy(t)
	feed.setTarget(leaderBase)
	fcfg := replCfg("", "")
	fcfg.ReadWaitMax = 1200 * time.Millisecond
	_, fBase, _ := startFollower(t, fcfg, feed.URL())

	readState := func(base string, min int64) (*http.Response, StateDTO) {
		t.Helper()
		req, err := http.NewRequest("GET", base+"/api/v1/state", nil)
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		if min != 0 {
			req.Header.Set(MinOffsetHeader, strconv.FormatInt(min, 10))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", base, err)
		}
		defer resp.Body.Close()
		var st StateDTO
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatalf("decode state: %v", err)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return resp, st
	}

	// The ack's offset is immediately readable on the daemon that acked it.
	code, ack, bad := postJobs(t, leaderBase, JobRequest{Kind: "batch", Name: "ryw-0", Seed: 100, Key: "ryw-0"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%q)", code, bad.Error)
	}
	if ack.Offset <= 0 {
		t.Fatalf("ack offset = %d, want the commit offset", ack.Offset)
	}
	if resp, _ := readState(leaderBase, ack.Offset); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader read at ack offset = %d, want 200", resp.StatusCode)
	}
	waitCompleted(t, leaderBase, 1)
	waitReplBytes(t, fBase, s1.journal.Size())

	// Cut the feed; the next write exists only on the leader.
	feed.setDown(true)
	code, _, bad = postJobs(t, leaderBase, JobRequest{Kind: "batch", Name: "ryw-1", Seed: 101, Key: "ryw-1"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%q)", code, bad.Error)
	}
	waitCompleted(t, leaderBase, 2)
	target := s1.journal.Size()

	// Without the header, the lagging follower happily serves its prefix.
	if resp, st := readState(fBase, 0); resp.StatusCode != http.StatusOK || st.Completed != 1 {
		t.Fatalf("plain follower read = %d completed %d, want 200 with 1", resp.StatusCode, st.Completed)
	}

	// With it, the read parks until the bytes apply: heal the feed mid-wait
	// and the answer arrives with the write visible.
	type readResult struct {
		resp *http.Response
		st   StateDTO
	}
	got := make(chan readResult, 1)
	go func() {
		resp, st := readState(fBase, target)
		got <- readResult{resp, st}
	}()
	time.Sleep(50 * time.Millisecond)
	feed.setDown(false)
	select {
	case r := <-got:
		if r.resp.StatusCode != http.StatusOK || r.st.Completed != 2 {
			t.Fatalf("read-your-writes = %d completed %d, want 200 with 2", r.resp.StatusCode, r.st.Completed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("min-offset read never returned")
	}

	// Cut again: a wait that cannot be satisfied times out into 503 +
	// Retry-After after the configured bound.
	feed.setDown(true)
	code, _, bad = postJobs(t, leaderBase, JobRequest{Kind: "batch", Name: "ryw-2", Seed: 102, Key: "ryw-2"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%q)", code, bad.Error)
	}
	waitCompleted(t, leaderBase, 3)
	target = s1.journal.Size()
	start := time.Now()
	resp, _ := readState(fBase, target)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unsatisfiable min-offset read = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if e := time.Since(start); e < 800*time.Millisecond {
		t.Fatalf("timed out after %v, want the full %v bound", e, fcfg.ReadWaitMax)
	}

	// A malformed offset is a client error, not a wait.
	req, _ := http.NewRequest("GET", fBase+"/api/v1/state", nil)
	req.Header.Set(MinOffsetHeader, "-3")
	br, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("bad-offset read: %v", err)
	}
	io.Copy(io.Discard, br.Body)
	br.Body.Close()
	if br.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-offset read = %d, want 400", br.StatusCode)
	}
}
