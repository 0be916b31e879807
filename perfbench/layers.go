package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"abg/internal/obs"
)

// layerMetrics lists every per-layer metric in report order, with its unit.
// A workload that does not reach a layer reports 0 for it (LAYERS.md maps
// each metric to the workload it applies to).
var layerMetrics = []struct{ name, unit string }{
	{"sim.step_calls", "count"},
	{"sim.step_ms.p50", "ms"},
	{"sim.step_ms.p99", "ms"},
	{"sim.self_ns_per_job_quantum", "ns"},
	{"job.step_calls", "count"},
	{"job.tasks", "count"},
	{"job.ns_per_task", "ns"},
	{"feedback.requests", "count"},
	{"feedback.ns_per_request", "ns"},
	{"alloc.allot_calls", "count"},
	{"alloc.ns_per_allot", "ns"},
	{"alloc.deprived_ratio", "ratio"},
	{"server.quanta", "count"},
	{"server.ns_per_quantum", "ns"},
	{"server.sse_events", "count"},
	{"server.sse_evicted", "count"},
	{"server.sse_dropped", "count"},
	{"server.http_ms.p50.jobs", "ms"},
	{"persist.appends", "count"},
	{"persist.append_bytes", "bytes"},
	{"persist.append_ms.p99", "ms"},
	{"persist.fsyncs", "count"},
	{"persist.fsync_ms.p50", "ms"},
	{"persist.fsync_ms.p99", "ms"},
	{"persist.snapshots", "count"},
	{"replica.lag_bytes.max", "bytes"},
	{"replica.catchup_ms", "ms"},
	{"cluster.rounds", "count"},
	{"cluster.ns_per_round", "ns"},
	{"cluster.routing_imbalance", "ratio"},
	{"client.retries", "count"},
	{"client.deadlines", "count"},
	{"client.failed_ratio", "ratio"},
	{"client.submit_ms.p50", "ms"},
	{"client.submit_ms.p99", "ms"},
	{"client.turnaround_ms.p99", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.mallocs_per_job_quantum", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// reportLayers adds every per-layer metric the phase has not reported yet:
// the median over episodes from s, or 0 when the workload does not reach
// that layer. client.submit_ms and client.turnaround_ms come from the
// phase's latency samples;
// trace.overhead_ratio is added by the caller, which alone sees both
// phases.
func reportLayers(p *phase, s series, submitMs, turnMs [][]float64) {
	addPercentile(p, "client.submit_ms.p50", submitMs, 0.5)
	addPercentile(p, "client.submit_ms.p99", submitMs, 0.99)
	addPercentile(p, "client.turnaround_ms.p99", turnMs, 0.99)
	have := make(map[string]bool, len(p.metrics))
	for _, m := range p.metrics {
		have[m.name] = true
	}
	for _, lm := range layerMetrics {
		if have[lm.name] || lm.name == "trace.overhead_ratio" {
			continue
		}
		s.report(p, lm.name, lm.unit)
	}
}

// sumCounters sums every series of a counter family in reg, across labels.
func sumCounters(reg *obs.Registry, family string) int64 {
	var sum int64
	reg.Visit(func(name string, m any) {
		c, ok := m.(*obs.Counter)
		if ok && (name == family || strings.HasPrefix(name, family+"{")) {
			sum += c.Value()
		}
	})
	return sum
}

// findHist returns the histogram registered under name, or an empty one.
func findHist(reg *obs.Registry, name string) *obs.Histogram {
	var h *obs.Histogram
	reg.Visit(func(n string, m any) {
		if x, ok := m.(*obs.Histogram); ok && n == name {
			h = x
		}
	})
	if h == nil {
		return obs.NewRegistry().Histogram(name, []float64{1})
	}
	return h
}

// scrape GETs a Prometheus text exposition and returns each sample's value
// keyed by its series name (labels included).
func scrape(ctx context.Context, c *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumFamily sums a scraped family across its label sets.
func sumFamily(samples map[string]float64, family string) float64 {
	var sum float64
	for name, v := range samples {
		if name == family || strings.HasPrefix(name, family+"{") {
			sum += v
		}
	}
	return sum
}
