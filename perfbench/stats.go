package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// series collects one number per episode; the phase reports the median.
type series map[string][]float64

func (s series) put(name string, v float64) { s[name] = append(s[name], v) }

func (s series) report(p *phase, name, unit string) {
	p.add(name, median(s[name]), unit, len(s[name]))
	p.metrics[len(p.metrics)-1].episodes = s[name]
}

// reportEndToEnd adds the end-to-end metrics, the same on every workload.
func reportEndToEnd(p *phase, s series, turnMs [][]float64) {
	s.report(p, "setup_s", "s")
	s.report(p, "job_quanta_per_s", "1/s")
	s.report(p, "jobs_per_s", "1/s")
	addPercentile(p, "turnaround_ms.p50", turnMs, 0.5)
	s.report(p, "peak_heap_mb", "MiB")
}

// addPercentile reports the q-quantile of a latency in ms from each
// episode's samples. When every episode holds at least 1,000 samples (ten
// beyond its p99), the quantile is taken per episode and the median across
// episodes reported, so one disturbed episode cannot move the figure;
// otherwise the run's samples are pooled.
func addPercentile(p *phase, name string, eps [][]float64, q float64) {
	var pooled, per []float64
	perEpisode := len(eps) > 0
	for _, xs := range eps {
		pooled = append(pooled, xs...)
		per = append(per, quantile(xs, q))
		if len(xs) < 1000 {
			perEpisode = false
		}
	}
	v := quantile(pooled, q)
	if perEpisode {
		v = median(per)
	}
	p.add(name, v, "ms", len(pooled))
	p.metrics[len(p.metrics)-1].episodes = per
}

// liveHeapMB collects garbage and returns the live heap in MiB, independent
// of when the collector last ran. An episode reads it before its set-up and
// at the end of its measured part, where its state is largest; the
// difference is the episode's peak heap, and the run reports the median.
// Taking the difference keeps whatever earlier episodes left reachable out
// of the figure.
func liveHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// runtimeDelta measures the Go runtime's GC and allocation work over a span
// of the run.
type runtimeDelta struct{ before runtime.MemStats }

func startRuntimeDelta() *runtimeDelta {
	r := &runtimeDelta{}
	runtime.ReadMemStats(&r.before)
	return r
}

// add reports runtime.* metrics into s, per job quantum where it applies.
func (r *runtimeDelta) add(s series, jobQuanta float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	s.put("runtime.gc_cycles", float64(after.NumGC-r.before.NumGC))
	s.put("runtime.gc_pause_ms", float64(after.PauseTotalNs-r.before.PauseTotalNs)/1e6)
	if jobQuanta > 0 {
		s.put("runtime.mallocs_per_job_quantum", float64(after.Mallocs-r.before.Mallocs)/jobQuanta)
	}
}

// machineJSON describes the machine and the code under test.
func machineJSON() string {
	m := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	b, _ := json.Marshal(m) // a map of strings and ints always marshals
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the VCS revision the binary was built
// from when the build recorded one, otherwise a digest of the Go sources and
// module files under the working directory (the checkout being measured).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
