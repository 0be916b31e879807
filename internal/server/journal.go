package server

import (
	"encoding/json"
	"fmt"

	"abg/internal/persist"
)

// The daemon's write-ahead journal records every externally-sourced piece of
// nondeterminism, so that snapshot + replay reconstructs the exact engine a
// crashed daemon was running:
//
//	header    the configuration fingerprint the journal was written under —
//	          replaying under a different machine or scheduler would diverge
//	          silently, so recovery refuses a mismatched journal
//	submit    one acked POST /api/v1/jobs: the normalized request (which
//	          pins the generated profiles), the ids promised to the client,
//	          and the idempotency key; written BEFORE the ack goes out
//	admit     the quantum boundary at which a batch of queued jobs entered
//	          the engine — the one scheduling decision the clock makes
//	drain     admission closed (operator intent survives a crash)
//	snapshot  a sim.Engine snapshot plus the SSE sequence counter, letting
//	          recovery replay only the journal tail
//	step      the engine executed one working quantum boundary — the record
//	          that turns the journal into a complete op log, so a follower's
//	          state is a pure function of how many journal bytes it applied
//	epoch     a leadership change: the first record a promoted leader appends,
//	          framed under the new epoch, carrying the epoch again plus the
//	          new leader's advertised URL — the durable fence that lets every
//	          replica reject a resurrected stale leader's records
//
// Everything else the daemon does is a deterministic function of these
// records, so nothing else is journaled.

// headerRecord fingerprints the configuration a journal belongs to.
type headerRecord struct {
	p, l      int
	scheduler string
	r         float64
	rho       float64
	delta     float64
	faultSpec string
	seed      uint64
}

const journalFormatVersion byte = 1

func (s *Server) headerRecord() headerRecord {
	return headerRecord{
		p: s.cfg.P, l: s.cfg.L, scheduler: s.cfg.Scheduler,
		r: s.cfg.R, rho: s.cfg.Rho, delta: s.cfg.Delta,
		faultSpec: s.cfg.FaultSpec, seed: s.cfg.Seed,
	}
}

func encodeHeader(h headerRecord) []byte {
	e := persist.Enc{}
	e.Uvarint(uint64(journalFormatVersion))
	e.Int(h.p)
	e.Int(h.l)
	e.String(h.scheduler)
	e.Float(h.r)
	e.Float(h.rho)
	e.Float(h.delta)
	e.String(h.faultSpec)
	e.Uvarint(h.seed)
	return e.Bytes()
}

func decodeHeader(body []byte) (headerRecord, error) {
	d := persist.NewDec(body)
	if v := d.Uvarint(); d.Err() == nil && v != uint64(journalFormatVersion) {
		return headerRecord{}, fmt.Errorf("journal format version %d, this build reads %d",
			v, journalFormatVersion)
	}
	h := headerRecord{
		p: d.Int(), l: d.Int(), scheduler: d.String(),
		r: d.Float(), rho: d.Float(), delta: d.Float(),
		faultSpec: d.String(), seed: d.Uvarint(),
	}
	if err := d.Err(); err != nil {
		return headerRecord{}, fmt.Errorf("journal header: %w", err)
	}
	return h, nil
}

// submitRecord is one acknowledged submission: the ids handed to the client
// and the normalized request that deterministically regenerates the jobs.
type submitRecord struct {
	firstID int
	count   int
	key     string
	req     JobRequest
}

func encodeSubmit(rec submitRecord) ([]byte, error) {
	body, err := json.Marshal(rec.req)
	if err != nil {
		return nil, fmt.Errorf("journal submit record: %w", err)
	}
	e := persist.Enc{}
	e.Int(rec.firstID)
	e.Int(rec.count)
	e.String(rec.key)
	e.BytesField(body)
	return e.Bytes(), nil
}

func decodeSubmit(body []byte) (submitRecord, error) {
	d := persist.NewDec(body)
	rec := submitRecord{firstID: d.Int(), count: d.Int(), key: d.String()}
	raw := d.BytesField()
	if err := d.Err(); err != nil {
		return submitRecord{}, fmt.Errorf("journal submit record: %w", err)
	}
	if err := json.Unmarshal(raw, &rec.req); err != nil {
		return submitRecord{}, fmt.Errorf("journal submit record: %w", err)
	}
	if rec.firstID < 0 || rec.count < 1 || rec.count != rec.req.Count {
		return submitRecord{}, fmt.Errorf("journal submit record: implausible ids %d+%d (req count %d)",
			rec.firstID, rec.count, rec.req.Count)
	}
	return rec, nil
}

// admitRecord pins the quantum boundary at which a batch of queued jobs was
// handed to the engine.
type admitRecord struct {
	boundary int
	ids      []int
}

func encodeAdmit(rec admitRecord) []byte {
	e := persist.Enc{}
	e.Int(rec.boundary)
	e.Int(len(rec.ids))
	for _, id := range rec.ids {
		e.Int(id)
	}
	return e.Bytes()
}

func decodeAdmit(body []byte) (admitRecord, error) {
	d := persist.NewDec(body)
	rec := admitRecord{boundary: d.Int()}
	n := d.Int()
	if d.Err() == nil && (n < 1 || n > d.Len()) {
		return admitRecord{}, fmt.Errorf("journal admit record: implausible id count %d", n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		rec.ids = append(rec.ids, d.Int())
	}
	if err := d.Err(); err != nil {
		return admitRecord{}, fmt.Errorf("journal admit record: %w", err)
	}
	if rec.boundary < 0 {
		return admitRecord{}, fmt.Errorf("journal admit record: negative boundary %d", rec.boundary)
	}
	return rec, nil
}

// stepRecord pins one executed quantum boundary. Submissions, admissions and
// drains alone recover a crashed daemon (everything downstream is replayed
// deterministically), but they do not tell a *live reader* how far the engine
// has actually run — which is exactly what a replicating follower must know.
// With a step record journaled before every working quantum, the journal
// becomes the daemon's complete op log: a follower that has applied the first
// N bytes holds the same engine state the leader held at that point in its
// own journal, byte for byte. Idle boundaries (no unfinished jobs) are not
// journaled; they execute no work and emit no events, and the replay loop
// reconstructs them from the next record's boundary.
type stepRecord struct {
	boundary int // engine boundary at which the step executes (pre-step)
	// share is the cluster-assigned capacity share under which this quantum
	// executed, or -1 outside cluster mode. A shard's share depends on the
	// other shards' desires — external nondeterminism its own journal could
	// not otherwise reconstruct — so it is pinned here, keeping each shard's
	// recovery a pure function of its own journal bytes. Single-engine
	// daemons encode no share at all, so their journal bytes are unchanged
	// (and old journals decode as share -1).
	share int
}

func encodeStep(rec stepRecord) []byte {
	e := persist.Enc{}
	e.Int(rec.boundary)
	if rec.share >= 0 {
		e.Int(rec.share)
	}
	return e.Bytes()
}

func decodeStep(body []byte) (stepRecord, error) {
	d := persist.NewDec(body)
	rec := stepRecord{boundary: d.Int(), share: -1}
	if d.Err() == nil && d.Len() > 0 {
		rec.share = d.Int()
	}
	if err := d.Err(); err != nil {
		return stepRecord{}, fmt.Errorf("journal step record: %w", err)
	}
	if rec.boundary < 0 {
		return stepRecord{}, fmt.Errorf("journal step record: negative boundary %d", rec.boundary)
	}
	if rec.share < -1 {
		return stepRecord{}, fmt.Errorf("journal step record: negative share %d", rec.share)
	}
	return rec, nil
}

// epochRecord marks a leadership change. The epoch duplicates the record's
// framing epoch on purpose: the body survives decoding contexts that do not
// see the framing, and the cross-check catches a corrupted promotion. Leader
// is the promoted daemon's advertised URL, so replicas applying the record
// learn where writes now live without any out-of-band discovery.
type epochRecord struct {
	epoch  uint32
	leader string
}

func encodeEpoch(rec epochRecord) []byte {
	e := persist.Enc{}
	e.Uvarint(uint64(rec.epoch))
	e.String(rec.leader)
	return e.Bytes()
}

// decodeEpoch decodes an epoch record and cross-checks it against the
// epoch the record was framed under.
func decodeEpoch(rec persist.Record) (epochRecord, error) {
	d := persist.NewDec(rec.Body)
	ep := epochRecord{epoch: uint32(d.Uvarint()), leader: d.String()}
	if err := d.Err(); err != nil {
		return epochRecord{}, fmt.Errorf("journal epoch record: %w", err)
	}
	if ep.epoch < 2 {
		// Epoch 1 is the journal's birth term; a promotion can only ever
		// step beyond it.
		return epochRecord{}, fmt.Errorf("journal epoch record: implausible epoch %d", ep.epoch)
	}
	if ep.epoch != rec.Epoch {
		return epochRecord{}, fmt.Errorf("journal epoch record: body says %d, framing says %d",
			ep.epoch, rec.Epoch)
	}
	return ep, nil
}

// snapshotRecord carries one engine snapshot plus the server-side counters
// that must survive with it.
type snapshotRecord struct {
	boundary int
	quanta   int
	sseSeq   uint64
	engine   []byte
}

func encodeSnapshot(rec snapshotRecord) []byte {
	e := persist.Enc{}
	e.Int(rec.boundary)
	e.Int(rec.quanta)
	e.Uvarint(rec.sseSeq)
	e.BytesField(rec.engine)
	return e.Bytes()
}

func decodeSnapshot(body []byte) (snapshotRecord, error) {
	d := persist.NewDec(body)
	rec := snapshotRecord{
		boundary: d.Int(), quanta: d.Int(), sseSeq: d.Uvarint(),
	}
	rec.engine = append([]byte(nil), d.BytesField()...)
	if err := d.Err(); err != nil {
		return snapshotRecord{}, fmt.Errorf("journal snapshot record: %w", err)
	}
	return rec, nil
}

// appendJournal appends one record, treating a write failure as fatal: a
// daemon that cannot journal can no longer promise recoverability, so it
// drains rather than keep acking submissions it might forget. No-op without
// a journal. Caller holds s.mu.
func (s *Server) appendJournal(kind byte, body []byte) error {
	if s.journal == nil {
		return nil
	}
	if err := s.journal.Append(kind, body); err != nil {
		s.failLocked(fmt.Errorf("journal append: %w", err))
		return err
	}
	return nil
}
