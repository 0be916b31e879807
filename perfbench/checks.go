package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"strconv"
	"strings"

	"abg/internal/job"
	"abg/internal/metrics"
	"abg/internal/server"
)

// maxProblems caps how many individual failures one check lists.
const maxProblems = 5

// problems collects check failures, listing the first few in full.
type problems struct {
	list  []string
	extra int
}

func (ps *problems) add(format string, args ...any) {
	if len(ps.list) < maxProblems {
		ps.list = append(ps.list, fmt.Sprintf(format, args...))
		return
	}
	ps.extra++
}

func (ps *problems) result() []string {
	if ps.extra > 0 {
		return append(ps.list, fmt.Sprintf("… and %d more", ps.extra))
	}
	return ps.list
}

// checkSim verifies a sim-ample episode against the job set it ran: every
// job completes, does exactly its profile's work T1, takes at least its
// critical path, and the makespan respects the lower bound M*. None of these
// depend on wall-clock timing.
func checkSim(profs []*job.Profile, out simOutcome) []string {
	var ps problems
	if len(out.Jobs) != len(profs) {
		ps.add("%d job outcomes for %d submitted jobs", len(out.Jobs), len(profs))
		return ps.result()
	}
	infos := make([]metrics.JobInfo, len(profs))
	for i, j := range out.Jobs {
		prof := profs[i]
		infos[i] = metrics.JobInfo{Work: prof.Work(), CriticalPath: prof.CriticalPathLen()}
		if !j.Done {
			ps.add("job %d never completed", i)
		}
		if j.Work != prof.Work() {
			ps.add("job %d did work %d, its profile has T1 = %d", i, j.Work, prof.Work())
		}
		if j.Response < int64(prof.CriticalPathLen()) {
			ps.add("job %d responded in %d steps, below its critical path %d", i, j.Response, prof.CriticalPathLen())
		}
	}
	if lb := metrics.MakespanLowerBound(infos, out.P); float64(out.Makespan) < lb {
		ps.add("makespan %d below the lower bound M* = %.1f", out.Makespan, lb)
	}
	return ps.result()
}

// fingerprint hashes every job's (Completion, Waste, NumQuanta, DeprivedQ):
// the schedule the engine produced, which tracing must not perturb.
func (o simOutcome) fingerprint() uint64 {
	h := fnv.New64a()
	var b [32]byte
	for _, j := range o.Jobs {
		binary.LittleEndian.PutUint64(b[0:], uint64(j.Completion))
		binary.LittleEndian.PutUint64(b[8:], uint64(j.Waste))
		binary.LittleEndian.PutUint64(b[16:], uint64(j.NumQuanta))
		binary.LittleEndian.PutUint64(b[24:], uint64(j.DeprivedQ))
		h.Write(b[:])
	}
	return h.Sum64()
}

// durableOutcome is what one daemon-durable episode observed.
type durableOutcome struct {
	Acked           []int                 // job ids the leader acknowledged
	Leader          []server.JobStatusDTO // the leader's final statuses
	Reference       []server.JobStatusDTO // server.ReferenceResult of the leader's journal
	Follower        []server.JobStatusDTO // the follower's final statuses
	LeaderJournal   []byte
	FollowerJournal []byte
	Stream          sseTally // the leader's event stream, as the subscriber saw it
	Published       uint64   // events the leader published (state.lastEventId)
	Dropped         int64    // events the leader reported dropping (state.sseDropped)
}

// checkDurable verifies a daemon-durable episode: every acked job completed,
// an offline replay of the leader's journal reproduces the leader's
// statuses exactly, the follower ended with the leader's statuses and the
// leader's journal bytes, and the leader's event stream passes checkStream.
func checkDurable(o durableOutcome) []string {
	var ps problems
	byID := make(map[int]server.JobStatusDTO, len(o.Leader))
	for _, st := range o.Leader {
		byID[st.ID] = st
	}
	for _, id := range o.Acked {
		st, ok := byID[id]
		switch {
		case !ok:
			ps.add("acked job %d unknown to the leader", id)
		case st.State != "done":
			ps.add("acked job %d ended %q, not done", id, st.State)
		}
	}
	if len(o.Leader) != len(o.Acked) {
		ps.add("leader holds %d jobs, %d were acked", len(o.Leader), len(o.Acked))
	}
	diff := func(what string, got []server.JobStatusDTO) {
		if len(got) != len(o.Leader) {
			ps.add("%s has %d jobs, the leader %d", what, len(got), len(o.Leader))
			return
		}
		for i := range got {
			a, b := stripHistory(o.Leader[i]), stripHistory(got[i])
			if !reflect.DeepEqual(a, b) {
				ps.add("%s job %d differs from the leader:\n  leader %+v\n  %s %+v", what, a.ID, a, what, b)
			}
		}
	}
	diff("reference replay", o.Reference)
	diff("follower", o.Follower)
	if !bytes.Equal(o.LeaderJournal, o.FollowerJournal) {
		ps.add("follower journal (%d bytes) differs from the leader's (%d bytes)",
			len(o.FollowerJournal), len(o.LeaderJournal))
	}
	checkStream(&ps, o.Stream, o.Published, o.Dropped)
	return ps.result()
}

func stripHistory(st server.JobStatusDTO) server.JobStatusDTO {
	st.History = nil
	return st
}

// burstOutcome is what one cluster-burst episode observed.
type burstOutcome struct {
	Acked        []int                 // global job ids the front door acknowledged
	Jobs         []server.JobStatusDTO // final statuses of every job
	ExpectedWork int64                 // Σ T1 of the submitted specs, built offline
	Stream       sseTally
	Published    uint64 // events the merged stream published (state.lastEventId)
	Dropped      int64  // events the front door reported dropping (state.sseDropped)
}

// checkBurst verifies a cluster-burst episode: the completed jobs are
// exactly the acked ones, the work done equals the work the submitted specs
// describe, and the merged event stream passes checkStream.
func checkBurst(o burstOutcome) []string {
	var ps problems
	done := make(map[int]bool, len(o.Jobs))
	var work int64
	for _, st := range o.Jobs {
		work += st.Work
		if st.State == "done" {
			done[st.ID] = true
		}
	}
	acked := make(map[int]bool, len(o.Acked))
	for _, id := range o.Acked {
		acked[id] = true
		if !done[id] {
			ps.add("acked job %d did not complete", id)
		}
	}
	for id := range done {
		if !acked[id] {
			ps.add("completed job %d was never acked", id)
		}
	}
	if work != o.ExpectedWork {
		ps.add("jobs did %d work, the submitted specs describe %d", work, o.ExpectedWork)
	}
	checkStream(&ps, o.Stream, o.Published, o.Dropped)
	return ps.result()
}

// checkStream verifies an event stream as one never-reconnecting subscriber
// saw it: every frame moves its shard's id forward and none backwards, gaps
// between frames are covered by drops the daemon reported, and frames
// received plus drops equal the events published.
func checkStream(ps *problems, t sseTally, published uint64, dropped int64) {
	if t.regressions > 0 {
		ps.add("%d event ids did not move their shard forward (first: %s)", t.regressions, t.firstRegression)
	}
	for _, m := range t.malformed {
		ps.add("%s", m)
	}
	if t.resyncs > 0 {
		ps.add("%d resync frames on a subscriber that never reconnected", t.resyncs)
	}
	if t.gaps > dropped {
		ps.add("%d events missing between frames, only %d reported dropped", t.gaps, dropped)
	}
	if uint64(t.frames)+uint64(dropped) != published {
		ps.add("received %d events + %d dropped != %d published", t.frames, dropped, published)
	}
}

// sseTally follows a merged event stream's vector ids ("s0,s1,…"): each
// frame must move its shard's component forward and none backwards; ids
// advancing by more than one event between frames are a gap.
type sseTally struct {
	last            []uint64
	frames          int64
	gaps            int64
	regressions     int64
	firstRegression string
	resyncs         int64
	malformed       []string // ids that could not be parsed
}

// observe folds one frame's raw id into the tally.
func (t *sseTally) observe(rawID string) error {
	parts := strings.Split(rawID, ",")
	if t.last == nil {
		t.last = make([]uint64, len(parts))
	}
	if len(parts) != len(t.last) {
		return fmt.Errorf("event id %q has %d components, want %d", rawID, len(parts), len(t.last))
	}
	var advanced uint64
	backwards := false
	for k, part := range parts {
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return fmt.Errorf("event id %q: %w", rawID, err)
		}
		if v < t.last[k] {
			backwards = true
			continue
		}
		advanced += v - t.last[k]
		t.last[k] = v
	}
	t.frames++
	if backwards || advanced == 0 {
		t.regressions++
		if t.firstRegression == "" {
			t.firstRegression = rawID
		}
	}
	if advanced > 1 {
		t.gaps += int64(advanced - 1)
	}
	return nil
}
