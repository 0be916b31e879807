package cluster

import (
	"cmp"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"time"

	"abg/internal/cli"
	"abg/internal/obs/promexport"
	"abg/internal/server"
)

// The front door speaks the same API as a single daemon — clients built
// against abgd (server.Client, abgload, curl scripts) work unchanged — with
// cluster-wide semantics: job ids are global, /api/v1/state aggregates, the
// event stream merges, /metrics renders every shard's families under a
// shard label, and /api/v1/shards exposes the routing and allocation state
// that has no single-daemon counterpart.
//
// Global job ids interleave the shard index into the shard-local id:
// global = local*N + shard, so shard = global mod N. With one shard the
// mapping is the identity — a one-shard cluster's ids, acks, events and
// journal bytes are exactly a plain daemon's.

func (c *Cluster) globalID(local, shard int) int { return local*len(c.shards) + shard }

func (c *Cluster) splitID(global int) (local, shard int, ok bool) {
	if global < 0 {
		return 0, 0, false
	}
	n := len(c.shards)
	return global / n, global % n, true
}

func (c *Cluster) mux() *http.ServeMux {
	mux := http.NewServeMux()
	// Every route records the same abgd_http_* families a daemon exposes,
	// in the cluster registry (no shard label: this is the front door's own
	// traffic).
	in := c.httpMetrics.Instrument
	mux.HandleFunc("POST /api/v1/jobs", in("/api/v1/jobs", c.handleSubmit))
	mux.HandleFunc("GET /api/v1/jobs", in("/api/v1/jobs", c.handleJobs))
	mux.HandleFunc("GET /api/v1/jobs/{id}", in("/api/v1/jobs/{id}", c.handleJob))
	mux.HandleFunc("GET /api/v1/jobs/{id}/timeline", in("/api/v1/jobs/{id}/timeline", c.handleTimeline))
	mux.HandleFunc("GET /api/v1/traces/{id}", in("/api/v1/traces/{id}", c.handleTrace))
	mux.HandleFunc("GET /api/v1/state", in("/api/v1/state", c.handleState))
	mux.HandleFunc("GET /api/v1/shards", in("/api/v1/shards", c.handleShards))
	mux.HandleFunc("GET /api/v1/events", in("/api/v1/events", func(w http.ResponseWriter, r *http.Request) {
		// Every shard shares the template's scheduler.
		c.hub.ServeEvents(w, r, c.shards[0].srv.Snapshot().Scheduler)
	}))
	mux.HandleFunc("POST /api/v1/drain", in("/api/v1/drain", func(w http.ResponseWriter, r *http.Request) {
		server.ServeDrain(w, r, c.Drain, c.drained)
	}))
	mux.HandleFunc("GET /api/v1/recovery", in("/api/v1/recovery", c.handleRecovery))
	mux.HandleFunc("GET /api/v1/version", in("/api/v1/version", c.handleVersion))
	mux.HandleFunc("GET /healthz", in("/healthz", c.handleHealth))
	mux.HandleFunc("GET /metrics", in("/metrics", c.handleMetrics))
	return mux
}

// SubmitResponse is the front door's ack: the daemon's ack with global ids
// plus the shard the submission landed on.
type SubmitResponse struct {
	server.SubmitResponse
	Shard int `json:"shard"`
}

func (c *Cluster) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		server.WriteError(w, http.StatusServiceUnavailable, "draining: admission closed")
		return
	}
	server.ServeSubmit(w, r, c.submit)
}

// submit routes one normalized request and runs the owning shard's admission
// path, remapping the acked ids to global.
func (c *Cluster) submit(req server.JobRequest, traceID string) (SubmitResponse, int, error) {
	k := c.route(req)
	resp, status, err := c.shards[k].srv.SubmitLocal(req, traceID)
	if err != nil {
		return SubmitResponse{}, status, fmt.Errorf("shard %d: %w", k, err)
	}
	if resp.State == "queued" {
		c.shards[k].routed.Add(int64(len(resp.IDs)))
		c.metrics.routed[k].Add(int64(len(resp.IDs)))
		c.notify()
	}
	// The shard's response aliases the slice its idempotency map keeps (a
	// duplicate retry echoes that stored slice), so remap a copy — mutating
	// it in place would global-map the stored local ids once per retry.
	global := make([]int, len(resp.IDs))
	for i, id := range resp.IDs {
		global[i] = c.globalID(id, k)
	}
	resp.IDs = global
	return SubmitResponse{SubmitResponse: resp, Shard: k}, status, nil
}

// route picks the submission's shard: idempotency-key affinity first (a
// retry must land on the shard already holding the promise), the router
// otherwise. Routing is serialised so the (request, loads) sequence — and
// therefore the placement — is a pure function of the submission order.
func (c *Cluster) route(req server.JobRequest) int {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	if req.Key != "" {
		if k, ok := c.keys[req.Key]; ok {
			return k
		}
	}
	loads := make([]int, len(c.shards))
	for i, sh := range c.shards {
		loads[i] = sh.srv.Load()
	}
	k := c.router.Route(req, loads)
	if req.Key != "" {
		c.keys[req.Key] = k
	}
	return k
}

// JobDTO is a daemon job status plus the shard that owns the job.
type JobDTO struct {
	server.JobStatusDTO
	Shard int `json:"shard"`
}

func (c *Cluster) handleJobs(w http.ResponseWriter, _ *http.Request) {
	var out []JobDTO
	for k, sh := range c.shards {
		for _, dto := range sh.srv.JobStatuses() {
			dto.ID = c.globalID(dto.ID, k)
			out = append(out, JobDTO{JobStatusDTO: dto, Shard: k})
		}
	}
	// Global ids interleave round-robin across shards, so sorting by id
	// reads as submission-ish order rather than shard-grouped.
	slices.SortFunc(out, func(a, b JobDTO) int { return cmp.Compare(a.ID, b.ID) })
	if out == nil {
		out = []JobDTO{}
	}
	server.WriteJSON(w, http.StatusOK, out)
}

func (c *Cluster) jobFromPath(w http.ResponseWriter, r *http.Request) (local, shard int, ok bool) {
	g, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad job id: "+r.PathValue("id"))
		return 0, 0, false
	}
	local, shard, ok = c.splitID(g)
	if !ok {
		server.WriteError(w, http.StatusNotFound, fmt.Sprintf("no job %d", g))
	}
	return local, shard, ok
}

func (c *Cluster) handleJob(w http.ResponseWriter, r *http.Request) {
	local, k, ok := c.jobFromPath(w, r)
	if !ok {
		return
	}
	dto, ok := c.shards[k].srv.LookupJob(local)
	if !ok {
		server.WriteError(w, http.StatusNotFound, fmt.Sprintf("no job %d", c.globalID(local, k)))
		return
	}
	dto.ID = c.globalID(local, k)
	server.WriteJSON(w, http.StatusOK, JobDTO{JobStatusDTO: dto, Shard: k})
}

func (c *Cluster) handleTimeline(w http.ResponseWriter, r *http.Request) {
	local, k, ok := c.jobFromPath(w, r)
	if !ok {
		return
	}
	tl, ok := c.shards[k].srv.JobTimeline(local)
	if !ok {
		server.WriteError(w, http.StatusNotFound, fmt.Sprintf("no job %d", c.globalID(local, k)))
		return
	}
	tl.ID = c.globalID(local, k)
	server.WriteJSON(w, http.StatusOK, tl)
}

func (c *Cluster) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	for _, sh := range c.shards {
		if dto, ok := sh.srv.TraceByID(id); ok {
			server.WriteJSON(w, http.StatusOK, dto)
			return
		}
	}
	server.WriteError(w, http.StatusNotFound, "no trace "+id)
}

// InfoDTO is the cluster sub-object of the aggregated state.
type InfoDTO struct {
	Shards     int    `json:"shards"`
	Policy     string `json:"policy"`
	Router     string `json:"router"`
	Workers    int    `json:"workers,omitempty"`
	EventID    string `json:"eventId"`
	Rebalances int64  `json:"rebalances"`
}

// StateDTO aggregates the shards into one daemon-shaped state (so
// server.Client.State decodes it) plus the cluster sub-object.
type StateDTO struct {
	server.StateDTO
	Cluster InfoDTO `json:"cluster"`
}

func (c *Cluster) handleState(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.state())
}

func (c *Cluster) state() StateDTO {
	st := StateDTO{
		Cluster: InfoDTO{
			Shards:     len(c.shards),
			Policy:     c.policy.Name(),
			Router:     c.router.Name(),
			Workers:    c.cfg.Workers,
			EventID:    c.hub.ID(),
			Rebalances: c.rebalances.Load(),
		},
	}
	var respWeighted float64
	for _, sh := range c.shards {
		s := sh.srv.Snapshot()
		if st.Scheduler == "" {
			st.Scheduler, st.Clock, st.Fault = s.Scheduler, s.Clock, s.Fault
		}
		st.Submitted += s.Submitted
		st.Queued += s.Queued
		st.Pending += s.Pending
		st.Running += s.Running
		st.Completed += s.Completed
		st.QueueLimit += s.QueueLimit
		st.TotalWaste += s.TotalWaste
		respWeighted += s.MeanResponse * float64(s.Completed)
		if s.Boundary > st.Boundary {
			st.Boundary = s.Boundary
		}
		if s.Now > st.Now {
			st.Now = s.Now
		}
		if s.QuantaElapsed > st.QuantaElapsed {
			st.QuantaElapsed = s.QuantaElapsed
		}
		if s.Makespan > st.Makespan {
			st.Makespan = s.Makespan
		}
		if s.Error != "" && st.Error == "" {
			st.Error = s.Error
		}
	}
	if st.Completed > 0 {
		st.MeanResponse = respWeighted / float64(st.Completed)
	}
	st.Version = cli.Version
	st.P = c.cfg.Shard.P
	st.L = c.cfg.Shard.L
	st.Draining = c.draining.Load()
	st.SSEClients = c.hub.Clients()
	st.SSEDropped = c.hub.Dropped()
	st.LastEventID = c.hub.Seq()
	st.UptimeSec = time.Since(c.started).Seconds()
	return st
}

// ShardDTO is one row of /api/v1/shards: the routing and allocation state
// of one engine shard.
type ShardDTO struct {
	Shard int `json:"shard"`
	// Desire and Share are the shard's aggregate processor request and the
	// cluster allocator's grant, as of the last completed round.
	Desire int `json:"desire"`
	Share  int `json:"share"`
	// Routed counts jobs this process routed here; Submitted counts every
	// job the shard has ever acked (it survives restarts, Routed does not).
	Routed    int64  `json:"routed"`
	Submitted int    `json:"submitted"`
	Queued    int    `json:"queued"`
	Load      int    `json:"load"`
	Boundary  int    `json:"boundary"`
	Completed int    `json:"completed"`
	SSESeq    uint64 `json:"sseSeq"`
	Health    string `json:"health"`
	// Epoch is the shard's leadership epoch. Shards of one cluster process
	// never elect (there is no shard-level group), but journals carry the
	// epoch per record, so a shard journal lifted into a replication group
	// later keeps fencing exactly; surfacing it here keeps the operator view
	// uniform with /api/v1/replication.
	Epoch uint32 `json:"epoch"`
}

func (c *Cluster) handleShards(w http.ResponseWriter, _ *http.Request) {
	out := make([]ShardDTO, len(c.shards))
	for k, sh := range c.shards {
		s := sh.srv.Snapshot()
		desire, share := sh.roundStats()
		h, _ := sh.srv.Health()
		out[k] = ShardDTO{
			Shard: k, Desire: desire, Share: share,
			Routed: sh.routed.Load(), Submitted: s.Submitted,
			Queued: s.Queued, Load: sh.srv.Load(),
			Boundary: s.Boundary, Completed: s.Completed,
			SSESeq: sh.srv.SSESeq(), Health: h.Status,
			Epoch: sh.srv.Epoch(),
		}
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// RecoveryDTO lists every shard's boot-time recovery report.
type RecoveryDTO struct {
	Shards []server.RecoveryDTO `json:"shards"`
}

func (c *Cluster) handleRecovery(w http.ResponseWriter, _ *http.Request) {
	dto := RecoveryDTO{Shards: make([]server.RecoveryDTO, len(c.shards))}
	for k, sh := range c.shards {
		dto.Shards[k] = sh.srv.Recovery()
	}
	server.WriteJSON(w, http.StatusOK, dto)
}

func (c *Cluster) handleVersion(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]string{
		"version": cli.Version,
		"go":      runtime.Version(),
		"cluster": strconv.Itoa(len(c.shards)),
	})
}

// HealthDTO is the cluster health verdict: the worst shard status, with
// every shard's reasons attributed.
type HealthDTO struct {
	Status   string             `json:"status"`
	Draining bool               `json:"draining,omitempty"`
	Shards   []server.HealthDTO `json:"shards"`
	Reasons  []string           `json:"reasons,omitempty"`
}

func healthRank(status string) int {
	switch status {
	case "ok":
		return 0
	case "degraded":
		return 1
	default: // failing
		return 2
	}
}

func (c *Cluster) handleHealth(w http.ResponseWriter, _ *http.Request) {
	dto := HealthDTO{Status: "ok", Draining: c.draining.Load()}
	worst := 0
	for k, sh := range c.shards {
		h, _ := sh.srv.Health()
		dto.Shards = append(dto.Shards, h)
		if r := healthRank(h.Status); r > worst {
			worst = r
			dto.Status = h.Status
		}
		for _, reason := range h.Reasons {
			dto.Reasons = append(dto.Reasons, fmt.Sprintf("shard %d: %s", k, reason))
		}
	}
	code := http.StatusOK
	if worst > 0 {
		code = http.StatusServiceUnavailable
	}
	server.WriteJSON(w, code, dto)
}

// handleMetrics renders the cluster registry plus every shard's registry
// under a shard label, in one exposition: the sim_* and abgd_* families
// appear once per shard, distinguished by shard="k", alongside the
// cluster-only abgd_cluster_* families.
func (c *Cluster) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	c.sample()
	sets := make([]promexport.Set, 0, len(c.shards)+1)
	sets = append(sets, promexport.Set{Reg: c.metrics.reg})
	for k, sh := range c.shards {
		sh.srv.SampleMetrics()
		sets = append(sets, promexport.Set{
			Reg:    sh.srv.MetricsRegistry(),
			Labels: []string{"shard", strconv.Itoa(k)},
		})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = promexport.WriteSets(w, sets...)
}
