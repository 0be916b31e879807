package cluster

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"abg/internal/server"
)

// eventsAfter streams the front door's merged events after the vector
// position last, closing the hub once the client is subscribed, and returns
// every frame received before the stream ended.
func eventsAfter(t *testing.T, c *Cluster, last string) []sseFrame {
	t.Helper()
	ts := httptest.NewServer(c.mux())
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/events", nil)
	req.Header.Set("Last-Event-ID", last)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events after %q: status %d", last, resp.StatusCode)
	}
	for deadline := time.Now().Add(5 * time.Second); c.hub.Clients() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("client never subscribed")
		}
	}
	c.hub.Close()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == "":
			if cur.Data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			cur.ID = line[4:]
		case strings.HasPrefix(line, "event: "):
			cur.Event = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.Data = line[6:]
		}
	}
	return frames
}

// TestMergedStreamResumeAndResync drives a 2-shard cluster with a tiny
// merged ring: a client resuming from a position the ring still covers
// gets exactly the newer frames, and one whose position was evicted gets a
// single resync frame first.
func TestMergedStreamResumeAndResync(t *testing.T) {
	run := func(t *testing.T) *Cluster {
		c, err := New(Config{Shards: 2, Shard: shardConfig("", ""), EventRing: 8})
		if err != nil {
			t.Fatal(err)
		}
		for i, req := range []server.JobRequest{
			{Kind: "fullpar", Name: "a", Width: 4, Quanta: 3},
			{Kind: "serial", Name: "b", Quanta: 3},
			{Kind: "batch", Count: 2, Seed: 5, CL: 8},
		} {
			req.Normalize()
			if _, status, err := c.submit(req, ""); err != nil || status != http.StatusAccepted {
				t.Fatalf("submit %d: status %d err %v", i, status, err)
			}
		}
		for i := 0; i < 3; i++ {
			c.round(false)
		}
		if c.hub.Evicted() == 0 {
			t.Fatalf("only %d events: the 8-entry ring never evicted", c.hub.Seq())
		}
		return c
	}

	// The current head: nothing to replay, no resync.
	c := run(t)
	if frames := eventsAfter(t, c, c.hub.ID()); len(frames) != 0 {
		t.Fatalf("resume at the head replayed %d frames: %+v", len(frames), frames)
	}

	// From the very start: the ring evicted it, so one resync, then the
	// eight retained frames.
	c = run(t)
	all := eventsAfter(t, c, "0,0")
	if len(all) != 9 || all[0].Event != "resync" {
		t.Fatalf("resume from an evicted position: %d frames, first %+v", len(all), all[0])
	}
	for _, f := range all[1:] {
		if f.Event != "" || strings.Count(f.ID, ",") != 1 {
			t.Fatalf("not a 2-component data frame: %+v", f)
		}
	}

	// From a retained frame's vector (the run is deterministic, so a fresh
	// cluster publishes the same frames): exactly the frames after it.
	c = run(t)
	if frames := eventsAfter(t, c, all[6].ID); !reflect.DeepEqual(frames, all[7:]) {
		t.Fatalf("resume after %s:\n got  %+v\n want %+v", all[6].ID, frames, all[7:])
	}
}
