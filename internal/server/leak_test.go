package server

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestDrainedServerIsCollected: once a drained daemon is dropped, nothing
// process-global keeps its event bus — and with it the SSE hub, the job
// histories and the trace store subscribed to it — alive. (The finalizer
// sits on the bus rather than the Server itself: the Server is in reference
// cycles through its HTTP handlers, and Go never finalizes an object that
// can reach itself.)
func TestDrainedServerIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		s, err := New(Config{Addr: "127.0.0.1:0", P: 8, L: 20, Clock: ClockVirtual})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		req := JobRequest{Kind: "batch", Count: 2, Seed: 1}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.SubmitLocal(req, ""); err != nil {
			t.Fatal(err)
		}
		s.Drain()
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(s.bus, func(any) { close(collected) })
	}()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a drained, dropped server's event bus was never collected")
}
