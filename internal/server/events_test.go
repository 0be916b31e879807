package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// The event hub with several components — a cluster front door's merged
// stream, one component per shard, vector event ids.

// serveHub serves h's event stream on a test listener.
func serveHub(t *testing.T, h *EventHub) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeEvents(w, r, "abg")
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// publishAll publishes one event per entry of comps, in order, with a
// payload naming the component and its per-component index.
func publishAll(h *EventHub, comps ...int) {
	n := map[int]int{}
	for _, k := range comps {
		h.Publish(k, []byte(`{"c":`+strconv.Itoa(k)+`,"i":`+strconv.Itoa(n[k])+`}`))
		n[k]++
	}
}

// frame is one received SSE frame, reduced to what the tests compare.
type frame struct{ ID, Type, Data string }

// resume connects with Last-Event-ID last, closes the hub once the client
// is subscribed, and returns every frame received before the stream ended.
func resume(t *testing.T, h *EventHub, last string) []frame {
	t.Helper()
	base := serveHub(t, h)
	c := NewClient(base)
	done := make(chan []frame, 1)
	go func() {
		var got []frame
		_, err := c.streamOnce(context.Background(), &last, func(ev SSEEvent) error {
			got = append(got, frame{ev.RawID, ev.Type, string(ev.Data)})
			return nil
		})
		if err != io.EOF {
			t.Errorf("stream ended with %v, want EOF", err)
		}
		done <- got
	}()
	deadline := time.Now().Add(5 * time.Second)
	for h.Clients() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	h.Close()
	return <-done
}

// TestVectorResumeReplaysNewerFrames: a vector Last-Event-ID replays, per
// component, exactly the frames newer than that component's position.
func TestVectorResumeReplaysNewerFrames(t *testing.T) {
	for _, tc := range []struct {
		last string
		want []frame
	}{
		{"1,1", []frame{
			{"2,1", "", `{"c":0,"i":1}`},
			{"2,2", "", `{"c":1,"i":1}`},
			{"3,2", "", `{"c":0,"i":2}`},
		}},
		{"0,2", []frame{
			{"1,0", "", `{"c":0,"i":0}`},
			{"2,1", "", `{"c":0,"i":1}`},
			{"3,2", "", `{"c":0,"i":2}`},
		}},
		{"3,2", nil},
		{"", []frame{
			{"1,0", "", `{"c":0,"i":0}`},
			{"1,1", "", `{"c":1,"i":0}`},
			{"2,1", "", `{"c":0,"i":1}`},
			{"2,2", "", `{"c":1,"i":1}`},
			{"3,2", "", `{"c":0,"i":2}`},
		}},
	} {
		t.Run("after "+tc.last, func(t *testing.T) {
			h := NewEventHub(2, 64, 0)
			publishAll(h, 0, 1, 0, 1, 0)
			if got := resume(t, h, tc.last); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("replay after %q:\n got  %q\n want %q", tc.last, got, tc.want)
			}
		})
	}
}

// TestVectorResyncOnEviction: when the ring has evicted some component's
// position, the client gets exactly one resync frame — carrying the
// position just before the replay — then whatever the ring still holds.
func TestVectorResyncOnEviction(t *testing.T) {
	h := NewEventHub(2, 3, 0)
	publishAll(h, 0, 1, 0, 0, 0) // the ring keeps c0's events 2..4; c1's only event is gone
	if h.Evicted() != 2 {
		t.Fatalf("evicted %d, want 2", h.Evicted())
	}
	got := resume(t, h, "1,0")
	want := []frame{
		{"1,1", "resync", `{"reason":"replay ring evicted, refetch /api/v1/state"}`},
		{"2,1", "", `{"c":0,"i":1}`},
		{"3,1", "", `{"c":0,"i":2}`},
		{"4,1", "", `{"c":0,"i":3}`},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frames after an evicted component:\n got  %q\n want %q", got, want)
	}

	// A position the ring still covers on every component needs no resync.
	h = NewEventHub(2, 3, 0)
	publishAll(h, 0, 1, 0, 0, 0)
	if got := resume(t, h, "2,1"); len(got) != 2 || got[0].Type != "" {
		t.Fatalf("covered position: frames %q, want two data frames", got)
	}
}

// TestVectorLastEventIDValidation: a malformed or wrong-length vector is a
// 400, before any stream starts.
func TestVectorLastEventIDValidation(t *testing.T) {
	h := NewEventHub(2, 8, 0)
	base := serveHub(t, h)
	for _, last := range []string{"1", "1,2,3", "1,x", "-1,0", "1, 2", "1,", ","} {
		req, _ := http.NewRequest(http.MethodGet, base, nil)
		req.Header.Set("Last-Event-ID", last)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("Last-Event-ID %q: status %d, want 400", last, resp.StatusCode)
		}
	}
}
