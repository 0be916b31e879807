package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"abg/internal/persist"
)

// startFollower boots a follower tailing leaderBase, with its own journal
// directory. cfg must carry the leader's engine configuration (P, L,
// scheduler parameters, fault spec, seed) — the shipped header is
// cross-checked against it.
func startFollower(t *testing.T, cfg Config, leaderBase string) (*Server, string, string) {
	t.Helper()
	dir := t.TempDir()
	cfg.JournalDir = dir
	cfg.FollowURL = leaderBase
	s, base := startCrashable(t, cfg)
	return s, base, dir
}

// waitReplBytes polls base's replication status until its journal holds at
// least want bytes.
func waitReplBytes(t *testing.T, base string, want int64) ReplicationDTO {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var dto ReplicationDTO
	for time.Now().Before(deadline) {
		getJSON(t, base+"/api/v1/replication", &dto)
		if dto.JournalBytes >= want {
			return dto
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower stuck at %d journal bytes, want %d (%+v)", dto.JournalBytes, want, dto)
	return dto
}

// getRaw fetches url and returns the raw response body.
func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d (%s)", url, resp.StatusCode, raw)
	}
	return raw
}

// collectSSE subscribes to base's event stream after afterID and collects
// frames until id `until` arrives.
func collectSSE(t *testing.T, base string, afterID, until uint64) []SSEEvent {
	t.Helper()
	client := NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	last := strconv.FormatUint(afterID, 10)
	if afterID == 0 {
		last = ""
	}
	var evs []SSEEvent
	_, err := client.streamOnce(ctx, &last, func(ev SSEEvent) error {
		evs = append(evs, ev)
		if ev.ID >= until {
			return ErrStopStream
		}
		return nil
	})
	if err != ErrStopStream {
		t.Fatalf("stream from %s: %v (got %d frames)", base, err, len(evs))
	}
	return evs
}

// stateSansVolatile fetches /api/v1/state and strips the fields that
// legitimately differ between two daemons holding identical scheduler state
// (uptime, HTTP traffic counters, SSE client counts).
func stateSansVolatile(t *testing.T, base string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(getRaw(t, base+"/api/v1/state"), &m); err != nil {
		t.Fatalf("state: %v", err)
	}
	for _, k := range []string{
		"uptimeSec", "sseClients", "sseDropped",
		"httpRequests", "httpLatencyP50Ms", "httpLatencyP95Ms", "httpLatencyP99Ms",
	} {
		delete(m, k)
	}
	return m
}

// replCfg is the shared engine shape of the replication tests: virtual clock
// so the leader parks (and its journal goes quiet) the moment all jobs
// finish, making "caught up" a stable condition.
func replCfg(dir, faultSpec string) Config {
	return Config{
		P: 16, L: 50, Scheduler: "abg",
		Clock: ClockVirtual, QueueLimit: 100, Seed: 7,
		JournalDir: dir, SnapshotEvery: 4, FaultSpec: faultSpec,
	}
}

// TestFollowerMirrorsLeader is the core replica guarantee: at the same
// applied journal offset, a follower serves byte-identical job state and an
// identical SSE event stream, while writes redirect to the leader.
func TestFollowerMirrorsLeader(t *testing.T) {
	cfg := replCfg(t.TempDir(), "")
	s1, leaderBase := startCrashable(t, cfg)
	_, fBase, _ := startFollower(t, cfg, leaderBase)

	for i := 0; i < 4; i++ {
		submitKeyed(t, leaderBase, i)
	}
	waitCompleted(t, leaderBase, 4)
	size := s1.journal.Size()
	waitReplBytes(t, fBase, size)

	// Reads: the jobs listing must be byte-identical; single-job status with
	// its history, and the per-quantum timeline, too.
	if l, f := getRaw(t, leaderBase+"/api/v1/jobs"), getRaw(t, fBase+"/api/v1/jobs"); !bytes.Equal(l, f) {
		t.Fatalf("jobs listing diverged:\n leader   %s\n follower %s", l, f)
	}
	for i := 0; i < 4; i++ {
		lURL := fmt.Sprintf("%s/api/v1/jobs/%d", leaderBase, i)
		fURL := fmt.Sprintf("%s/api/v1/jobs/%d", fBase, i)
		if l, f := getRaw(t, lURL), getRaw(t, fURL); !bytes.Equal(l, f) {
			t.Fatalf("job %d diverged:\n leader   %s\n follower %s", i, l, f)
		}
		if l, f := getRaw(t, lURL+"/timeline"), getRaw(t, fURL+"/timeline"); !bytes.Equal(l, f) {
			t.Fatalf("job %d timeline diverged:\n leader   %s\n follower %s", i, l, f)
		}
	}
	lState := stateSansVolatile(t, leaderBase)
	fState := stateSansVolatile(t, fBase)
	if !reflect.DeepEqual(lState, fState) {
		t.Fatalf("state diverged:\n leader   %+v\n follower %+v", lState, fState)
	}

	// The SSE stream: identical ids AND identical payloads, frame for frame.
	head := uint64(lState["lastEventId"].(float64))
	if head == 0 {
		t.Fatal("no events emitted")
	}
	lEvents := collectSSE(t, leaderBase, 0, head)
	fEvents := collectSSE(t, fBase, 0, head)
	if !reflect.DeepEqual(lEvents, fEvents) {
		t.Fatalf("event streams diverged: leader %d frames, follower %d", len(lEvents), len(fEvents))
	}

	// /metrics and /healthz serve on the follower; health reports the role
	// and a live replication stream.
	getRaw(t, fBase+"/metrics")
	var h HealthDTO
	if code := getJSON(t, fBase+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("follower healthz = %d (%+v)", code, h)
	}
	if h.Role != "follower" || h.ReplConnected == nil || !*h.ReplConnected {
		t.Fatalf("follower health %+v, want follower with live stream", h)
	}
	var lh HealthDTO
	getJSON(t, leaderBase+"/healthz", &lh)
	if lh.Role != "leader" || lh.ReplConnected != nil {
		t.Fatalf("leader health %+v, want leader without repl fields", lh)
	}

	// Writes: a submission POSTed to the follower lands on the leader via the
	// 307 redirect (method and body intact) and replicates back.
	code, ack, bad := postJobs(t, fBase, JobRequest{
		Kind: "batch", Name: "via-follower", Seed: 200, Key: "via-follower",
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit via follower: status %d (%q)", code, bad.Error)
	}
	if len(ack.IDs) != 1 || ack.IDs[0] != 4 {
		t.Fatalf("submit via follower: ids %v, want [4]", ack.IDs)
	}
	waitCompleted(t, leaderBase, 5)
	waitReplBytes(t, fBase, s1.journal.Size())
	if l, f := getRaw(t, leaderBase+"/api/v1/jobs"), getRaw(t, fBase+"/api/v1/jobs"); !bytes.Equal(l, f) {
		t.Fatalf("jobs diverged after redirect submit:\n leader   %s\n follower %s", l, f)
	}

	// A reader claiming bytes the leader never wrote is told, loudly.
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/journal?from=%d", leaderBase, s1.journal.Size()+100))
	if err != nil {
		t.Fatalf("journal probe: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("journal beyond-size probe = %d, want 409", resp.StatusCode)
	}
}

// TestFollowerPromotionMatchesReference is the failover guarantee, per fault
// variant: SIGKILL the leader, promote the follower, keep submitting, and the
// promoted daemon's final results must DeepEqual an uninterrupted reference
// replay of its journal.
func TestFollowerPromotionMatchesReference(t *testing.T) {
	specs := []struct{ name, fault string }{
		{"nofault", ""},
		{"drop", "drop=0.3,seed=5"},
		{"churn", "cap=churn:0.5:4,seed=5"},
		{"restart", "restart=0.3,restartat=1,maxrestarts=2,seed=5"},
	}
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := crashCfg(t.TempDir(), tc.fault) // wall clock: crash lands mid-run
			s1, leaderBase := startCrashable(t, cfg)
			fcfg := crashCfg("", tc.fault)
			s2, fBase, fDir := startFollower(t, fcfg, leaderBase)

			for i := 0; i < 4; i++ {
				submitKeyed(t, leaderBase, i)
			}
			waitQuanta(t, s1, 3, 4)
			// Every acked submission must reach the follower before the kill:
			// the exact-prefix guarantee preserves what was shipped, and the
			// test wants a deterministic id sequence afterwards.
			waitReplBytes(t, fBase, s1.journal.Size())
			crash(t, s1)

			// Detached follower: still serving reads, but degraded.
			deadline := time.Now().Add(10 * time.Second)
			for {
				var h HealthDTO
				code := getJSON(t, fBase+"/healthz", &h)
				if code == http.StatusServiceUnavailable && h.Status == "degraded" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("follower never reported degraded after leader death: %+v", h)
				}
				time.Sleep(2 * time.Millisecond)
			}

			// Manual promotion: the follower becomes the leader and resumes
			// the run on its applied prefix.
			resp, err := http.Post(fBase+"/api/v1/promote", "application/json", nil)
			if err != nil {
				t.Fatalf("promote: %v", err)
			}
			var repl ReplicationDTO
			if err := json.NewDecoder(resp.Body).Decode(&repl); err != nil {
				t.Fatalf("promote body: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || repl.Role != "leader" || repl.Promotions != 1 {
				t.Fatalf("promote = %d %+v, want 200 leader with 1 promotion", resp.StatusCode, repl)
			}

			// The promoted daemon takes writes directly — ids continue densely.
			for i := 4; i < 8; i++ {
				submitKeyed(t, fBase, i)
			}
			waitQuanta(t, s2, s2.snapshot().QuantaElapsed+3, 8)
			s2.Drain()
			if err := s2.Wait(); err != nil {
				t.Fatalf("promoted drain: %v", err)
			}

			live := liveStatuses(s2)
			ref, err := ReferenceResult(fDir)
			if err != nil {
				t.Fatalf("ReferenceResult: %v", err)
			}
			if len(live) != 8 || len(ref) != 8 {
				t.Fatalf("job counts: live %d, reference %d, want 8", len(live), len(ref))
			}
			for i := range ref {
				if !reflect.DeepEqual(live[i], ref[i]) {
					t.Errorf("job %d diverged:\n live %+v\n ref  %+v", i, live[i], ref[i])
				}
			}
		})
	}
}

// TestRelayChainServesEvictedReconnect: followers chained off followers
// (leader → A → B) re-serve the event stream, and a slow consumer
// reconnecting to the relay tier with an evicted Last-Event-ID gets the
// resync contract, exactly as it would from the leader.
func TestRelayChainServesEvictedReconnect(t *testing.T) {
	cfg := replCfg(t.TempDir(), "")
	s1, leaderBase := startCrashable(t, cfg)
	_, aBase, _ := startFollower(t, cfg, leaderBase)
	bCfg := replCfg("", "")
	bCfg.EventRing = 8 // tiny replay ring: eviction is easy to hit
	_, bBase, bDir := startFollower(t, bCfg, aBase)

	for i := 0; i < 3; i++ {
		submitKeyed(t, leaderBase, i)
	}
	waitCompleted(t, leaderBase, 3)
	size := s1.journal.Size()
	waitReplBytes(t, aBase, size)
	waitReplBytes(t, bBase, size)

	// The whole chain agrees on the event head and the journal bytes.
	var lSt, bSt StateDTO
	getJSON(t, leaderBase+"/api/v1/state", &lSt)
	getJSON(t, bBase+"/api/v1/state", &bSt)
	if lSt.LastEventID != bSt.LastEventID || lSt.LastEventID == 0 {
		t.Fatalf("event heads: leader %d, relay %d", lSt.LastEventID, bSt.LastEventID)
	}
	if lSt.LastEventID <= 8+1 {
		t.Fatalf("only %d events; the 8-entry ring cannot have evicted", lSt.LastEventID)
	}
	lRaw, err := os.ReadFile(filepath.Join(cfg.JournalDir, persist.JournalFile))
	if err != nil {
		t.Fatalf("read leader journal: %v", err)
	}
	bRaw, err := os.ReadFile(filepath.Join(bDir, persist.JournalFile))
	if err != nil {
		t.Fatalf("read relay journal: %v", err)
	}
	if !bytes.Equal(lRaw, bRaw) {
		t.Fatalf("relay journal is not a byte copy: leader %d bytes, relay %d", len(lRaw), len(bRaw))
	}

	// A consumer that saw event 1 and vanished reconnects to B: its position
	// is long evicted from B's 8-entry ring, so the first frame must be the
	// resync marker, then ids strictly ascend from inside the ring.
	got := collectSSE(t, bBase, 1, bSt.LastEventID)
	if got[0].Type != "resync" {
		t.Fatalf("first relay frame %+v, want resync", got[0])
	}
	for i := 2; i < len(got); i++ {
		if got[i].ID <= got[i-1].ID {
			t.Fatalf("relay ids not increasing: %+v", got)
		}
	}
	if got[1].ID <= bSt.LastEventID-8 {
		t.Fatalf("relay replay started at %d, outside the 8-entry ring ending at %d",
			got[1].ID, bSt.LastEventID)
	}
	// The frames the relay still holds are the leader's, verbatim.
	want := collectSSE(t, leaderBase, got[1].ID-1, bSt.LastEventID)
	if !reflect.DeepEqual(got[1:], want) {
		t.Fatalf("relay ring frames diverge from leader's")
	}
}

// TestLeaderDrainPropagates: a leader drain ships the drain record and the
// final quanta, then the follower drains itself out cleanly with a journal
// that is a byte copy of the leader's.
func TestLeaderDrainPropagates(t *testing.T) {
	cfg := replCfg(t.TempDir(), "")
	s1, leaderBase := startCrashable(t, cfg)
	s2, fBase, fDir := startFollower(t, cfg, leaderBase)

	for i := 0; i < 3; i++ {
		submitKeyed(t, leaderBase, i)
	}
	waitCompleted(t, leaderBase, 3)

	// Drain through the follower: the POST redirects to the leader.
	resp, err := http.Post(fBase+"/api/v1/drain?wait=1", "application/json", nil)
	if err != nil {
		t.Fatalf("drain via follower: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain via follower: status %d", resp.StatusCode)
	}
	if err := s1.Wait(); err != nil {
		t.Fatalf("leader Wait: %v", err)
	}

	waitDone := make(chan error, 1)
	go func() { waitDone <- s2.Wait() }()
	select {
	case err := <-waitDone:
		if err != nil {
			t.Fatalf("follower Wait: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("follower did not drain out after the leader's drain")
	}

	lRaw, _ := os.ReadFile(filepath.Join(cfg.JournalDir, persist.JournalFile))
	fRaw, _ := os.ReadFile(filepath.Join(fDir, persist.JournalFile))
	if len(lRaw) == 0 || !bytes.Equal(lRaw, fRaw) {
		t.Fatalf("follower journal not a byte copy at drain: leader %d bytes, follower %d",
			len(lRaw), len(fRaw))
	}
	live := liveStatuses(s2)
	ref, err := ReferenceResult(fDir)
	if err != nil {
		t.Fatalf("ReferenceResult: %v", err)
	}
	if !reflect.DeepEqual(live, ref) {
		t.Fatalf("drained follower diverged:\n live %+v\n ref  %+v", live, ref)
	}
}

// TestFollowerRejectsMismatchedConfig: a follower booted with a different
// engine configuration must wedge on the shipped header, not serve state it
// would compute differently.
func TestFollowerRejectsMismatchedConfig(t *testing.T) {
	cfg := replCfg(t.TempDir(), "")
	_, leaderBase := startCrashable(t, cfg)
	bad := replCfg("", "")
	bad.Seed = 99 // any header field mismatch must be fatal
	s2, fBase, _ := startFollower(t, bad, leaderBase)

	deadline := time.Now().Add(10 * time.Second)
	for {
		var h HealthDTO
		getJSON(t, fBase+"/healthz", &h)
		if h.Status == "failing" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mismatched follower never failed: %+v", h)
		}
		time.Sleep(2 * time.Millisecond)
	}
	err := s2.Wait()
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("Wait = %v, want configuration-mismatch error", err)
	}
}

// TestPromoteRequiresReplicatedState: a follower that has not applied the
// leader's header yet (nothing replicated) refuses promotion.
func TestPromoteRequiresReplicatedState(t *testing.T) {
	cfg := replCfg(t.TempDir(), "")
	// No leader at this address: the follower can never apply anything.
	s, _ := func() (*Server, string) {
		c := cfg
		c.JournalDir = t.TempDir()
		c.FollowURL = "http://127.0.0.1:1"
		return startCrashable(t, c)
	}()
	if err := s.Promote("test"); err == nil {
		t.Fatal("promoted a follower with no replicated state")
	}
	s.tailer.Stop() // let cleanup finish promptly
}

// TestClientReadFailover: reads rotate to a follower when the primary target
// is gone; writes against a follower Base ride the 307 to the leader.
func TestClientReadFailover(t *testing.T) {
	cfg := replCfg(t.TempDir(), "")
	s1, leaderBase := startCrashable(t, cfg)
	_, fBase, _ := startFollower(t, cfg, leaderBase)

	for i := 0; i < 2; i++ {
		submitKeyed(t, leaderBase, i)
	}
	waitCompleted(t, leaderBase, 2)
	waitReplBytes(t, fBase, s1.journal.Size())

	// Writes on a follower Base: the redirect delivers them to the leader.
	wc := NewClient(fBase)
	ack, err := wc.Submit(context.Background(), JobRequest{Kind: "batch", Seed: 50, Key: "failover-w"})
	if err != nil {
		t.Fatalf("submit via follower base: %v", err)
	}
	if len(ack.IDs) != 1 || ack.IDs[0] != 2 {
		t.Fatalf("submit via follower base: ids %v, want [2]", ack.IDs)
	}
	waitCompleted(t, leaderBase, 3)
	waitReplBytes(t, fBase, s1.journal.Size())

	// Reads with a dead primary: the client fails over to the follower.
	rc := NewClient("http://127.0.0.1:1") // reserved port: refused instantly
	rc.Group = []string{fBase}
	rc.MaxAttempts = 4
	rc.BaseDelay = time.Millisecond
	st, err := rc.State(context.Background())
	if err != nil {
		t.Fatalf("read with dead primary: %v", err)
	}
	if st.Completed != 3 {
		t.Fatalf("failover read: completed %d, want 3", st.Completed)
	}
	if rc.ReadRetargets.Load() == 0 {
		t.Fatal("failover read did not count a retarget")
	}
}

// TestRetargetFollower: after a failover, the surviving follower re-points at
// the promoted leader and keeps mirroring — including the new leader's own
// appended records.
func TestRetargetFollower(t *testing.T) {
	cfg := crashCfg(t.TempDir(), "")
	s1, leaderBase := startCrashable(t, cfg)
	s2, aBase, aDir := startFollower(t, crashCfg("", ""), leaderBase)
	s3, bBase, bDir := startFollower(t, crashCfg("", ""), leaderBase)

	for i := 0; i < 4; i++ {
		submitKeyed(t, leaderBase, i)
	}
	// Idle boundaries are not journaled, so once every job is done the
	// leader's journal stops growing and "both caught up" is stable; a
	// mid-run size would leave the followers at different lengths.
	waitCompleted(t, leaderBase, 4)
	size := s1.journal.Size()
	waitReplBytes(t, aBase, size)
	waitReplBytes(t, bBase, size)
	crash(t, s1)

	// Promote A (both are caught up; either would do), retarget B at it.
	resp, err := http.Post(aBase+"/api/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	resp.Body.Close()
	body, _ := json.Marshal(retargetRequest{Leader: aBase})
	resp, err = http.Post(bBase+"/api/v1/retarget", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("retarget: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retarget: status %d", resp.StatusCode)
	}

	// New writes land on A and flow through to B.
	for i := 4; i < 6; i++ {
		submitKeyed(t, aBase, i)
	}
	waitQuanta(t, s2, s2.snapshot().QuantaElapsed+3, 6)
	waitReplBytes(t, bBase, s2.journal.Size())

	// Drain the new leader; B drains out with it. Comparisons happen only
	// after both have drained — a wall-clock leader keeps stepping between
	// any two mid-run reads, so live byte-compares would race.
	s2.Drain()
	if err := s2.Wait(); err != nil {
		t.Fatalf("new leader Wait: %v", err)
	}
	bDone := make(chan error, 1)
	go func() { bDone <- s3.Wait() }()
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatalf("retargeted follower Wait: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("retargeted follower did not drain out with the new leader")
	}

	aRaw, _ := os.ReadFile(filepath.Join(aDir, persist.JournalFile))
	bRaw, _ := os.ReadFile(filepath.Join(bDir, persist.JournalFile))
	if len(aRaw) == 0 || !bytes.Equal(aRaw, bRaw) {
		t.Fatalf("journals after drain: new leader %d bytes, follower %d", len(aRaw), len(bRaw))
	}
	if a, b := liveStatuses(s2), liveStatuses(s3); !reflect.DeepEqual(a, b) {
		t.Fatalf("retargeted follower diverged:\n new leader %+v\n follower   %+v", a, b)
	}
}

// TestDrainSyncFailureSurfaces: a journal fsync failure during the final
// drain flush must mark the daemon failing (healthz) and surface through
// Wait — hence the process exit code — instead of being logged and dropped.
func TestDrainSyncFailureSurfaces(t *testing.T) {
	cfg := replCfg(t.TempDir(), "")
	cfg.Fsync = "never" // the drain-time Sync is then the only fsync
	s, base := startCrashable(t, cfg)

	submitKeyed(t, base, 0)
	waitCompleted(t, base, 1)
	s.journal.FailSyncForTest(errors.New("disk full"))
	s.Drain()
	select {
	case <-s.drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}

	var h HealthDTO
	code := getJSON(t, base+"/healthz", &h)
	if code != http.StatusServiceUnavailable || h.Status != "failing" {
		t.Fatalf("healthz after failed drain sync = %d %+v, want failing", code, h)
	}
	found := false
	for _, r := range h.Reasons {
		if strings.Contains(r, "journal sync at drain") {
			found = true
		}
	}
	if !found {
		t.Fatalf("healthz reasons %v lack the drain-sync failure", h.Reasons)
	}
	err := s.Wait()
	if err == nil || !strings.Contains(err.Error(), "journal sync at drain") {
		t.Fatalf("Wait = %v, want drain-sync failure", err)
	}
}
