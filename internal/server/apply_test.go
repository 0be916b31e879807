package server

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"abg/internal/persist"
)

// recordRun drives a journal-backed leader by hand — keyed bursts between
// steps, a duplicate retry, then a drain — and returns its journal bytes.
func recordRun(t *testing.T, cfg Config) []byte {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	submit := func(req JobRequest) {
		t.Helper()
		if err := req.Normalize(); err != nil {
			t.Fatalf("normalize: %v", err)
		}
		if _, code, err := s.SubmitLocal(req, ""); err != nil || code >= 300 {
			t.Fatalf("submit %+v: %d %v", req, code, err)
		}
	}
	burstA := JobRequest{Kind: "batch", Count: 3, Seed: 11, Key: "burst-a"}
	submit(burstA)
	for i := 0; i < 3; i++ {
		s.Step(false)
	}
	submit(JobRequest{Kind: "fullPar", Width: 6, Quanta: 3, Count: 2, Key: "burst-b"})
	submit(burstA) // a retry: deduplicated, journals nothing
	for i := 0; i < 2; i++ {
		s.Step(false)
	}
	submit(JobRequest{Kind: "adversarial", Width: 5, Quanta: 4, Count: 2, Key: "burst-c"})
	s.Step(false)
	submit(JobRequest{Kind: "batch", Count: 2, Seed: 40, Key: "burst-d"})
	s.Drain()
	clock := &Clock{Servers: []*Server{s}, Step: s.Step}
	if err := clock.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(cfg.JournalDir, persist.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// coords are the Snapshot fields a pure function of the applied records.
func coords(st StateDTO) [12]int64 {
	draining := int64(0)
	if st.Draining {
		draining = 1
	}
	return [12]int64{
		int64(st.Boundary), st.Now, int64(st.QuantaElapsed), int64(st.Submitted),
		int64(st.Queued), int64(st.Pending), int64(st.Running), int64(st.Completed),
		st.Makespan, st.TotalWaste, int64(st.LastEventID), draining,
	}
}

// TestRecoverEveryRecordPrefix pins the one-applier contract: a daemon
// booted on any record prefix of a journal stands exactly where a follower
// that applied the same records stands — including the prefix that ends on
// an admit record whose step was never written — and, once drained, its
// results equal the reference replay of its own journal.
func TestRecoverEveryRecordPrefix(t *testing.T) {
	for _, tc := range []struct{ name, fault string }{
		{"clean", ""},
		{"faulted", "cap=churn:0.5:4,restart=0.3,restartat=1,maxrestarts=2,seed=5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := replCfg(t.TempDir(), tc.fault)
			scan := persist.ScanBytes(recordRun(t, cfg))
			if scan.TruncatedBytes != 0 || len(scan.Records) < 20 {
				t.Fatalf("recorded journal: %d records, %d torn bytes", len(scan.Records), scan.TruncatedBytes)
			}

			fcfg := cfg
			fcfg.JournalDir = t.TempDir()
			fcfg.FollowURL = "http://127.0.0.1:1" // never started: records are fed by hand
			f, err := New(fcfg)
			if err != nil {
				t.Fatalf("follower: %v", err)
			}
			defer f.finish()

			admitPrefixes := 0
			for i, rec := range scan.Records {
				if err := f.applyShipped(rec); err != nil {
					t.Fatalf("follower apply record %d: %v", i, err)
				}
				if rec.Kind == persist.KindAdmit {
					admitPrefixes++
				}
				prefix, err := os.ReadFile(filepath.Join(fcfg.JournalDir, persist.JournalFile))
				if err != nil {
					t.Fatal(err)
				}
				bcfg := cfg
				bcfg.JournalDir = t.TempDir()
				if err := os.WriteFile(filepath.Join(bcfg.JournalDir, persist.JournalFile), prefix, 0o644); err != nil {
					t.Fatal(err)
				}
				b, err := New(bcfg)
				if err != nil {
					t.Fatalf("boot on %d records: %v", i+1, err)
				}
				if got, want := coords(b.Snapshot()), coords(f.Snapshot()); got != want {
					t.Fatalf("boot on %d records (last %s) at %v, follower at %v",
						i+1, persist.KindName(rec.Kind), got, want)
				}
				if got, want := b.JobStatuses(), f.JobStatuses(); !reflect.DeepEqual(got, want) {
					t.Fatalf("boot on %d records: statuses diverge from the follower's:\n boot     %+v\n follower %+v",
						i+1, got, want)
				}

				b.Drain()
				if err := (&Clock{Servers: []*Server{b}, Step: b.Step}).Finish(); err != nil {
					t.Fatalf("drain after boot on %d records: %v", i+1, err)
				}
				ref, err := ReferenceResult(bcfg.JournalDir)
				if err != nil {
					t.Fatalf("reference after boot on %d records: %v", i+1, err)
				}
				if live := liveStatuses(b); !reflect.DeepEqual(live, ref) {
					t.Fatalf("boot on %d records, drained, diverges from the reference:\n live %+v\n ref  %+v",
						i+1, live, ref)
				}
			}
			if admitPrefixes < 3 {
				t.Fatalf("only %d prefixes end on an admit record", admitPrefixes)
			}
		})
	}
}
