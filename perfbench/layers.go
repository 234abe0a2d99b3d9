package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
	"time"

	"hybp/internal/harness"
	"hybp/internal/obs"
)

// perLayer fixes the per-layer metric names and units a traced run prints;
// BENCHMARK.json lists the same names with the end-to-end metric each
// should move.
var perLayer = []struct{ name, unit string }{
	{"workload.next_ns", "ns"},
	{"pipeline.self_ns", "ns"},
	{"pipeline.branches_per_s", "1/s"},
	{"secure.access_ns.baseline", "ns"},
	{"secure.access_ns.flush", "ns"},
	{"secure.access_ns.partition", "ns"},
	{"secure.access_ns.replication", "ns"},
	{"secure.access_ns.brb", "ns"},
	{"secure.access_ns.hybp", "ns"},
	{"secure.hybp_extra_ns", "ns"},
	{"secure.switch_us.flush", "us"},
	{"secure.switch_us.partition", "us"},
	{"secure.switch_us.hybp", "us"},
	{"secure.privchange_ns", "ns"},
	{"secure.unaccounted_frac", "ratio"},
	{"tage.access_ns", "ns"},
	{"tage.history_update_ns", "ns"},
	{"tage.history_reset_ns", "ns"},
	{"tage.provider_frac", "ratio"},
	{"tage.alloc_fail_frac", "ratio"},
	{"btb.lookup_ns", "ns"},
	{"btb.insert_ns", "ns"},
	{"btb.beyond_l1_frac", "ratio"},
	{"keys.key_ns", "ns"},
	{"keys.refresh_us", "us"},
	{"harness.exec_ms_p50", "ms"},
	{"harness.exec_ms_p99", "ms"},
	{"harness.overhead_us", "us"},
	{"harness.tail_us", "us"},
	{"harness.queue_ms_p99", "ms"},
	{"harness.dedup_frac", "ratio"},
	{"harness.parallel_eff", "ratio"},
	{"server.submit_ms_p50", "ms"},
	{"server.submit_ms_p99", "ms"},
	{"server.wait_ms_p50", "ms"},
	{"server.wait_ms_p99", "ms"},
	{"server.rejected", "count"},
	{"client.retries", "count"},
	{"journal.fsync_ms_p50", "ms"},
	{"journal.fsync_ms_p99", "ms"},
	{"journal.appends_per_job", "count"},
	{"cluster.roundtrip_ms_p50", "ms"},
	{"cluster.roundtrip_ms_p99", "ms"},
	{"cluster.exec_ms_p50", "ms"},
	{"cluster.fallback_frac", "ratio"},
	{"attack.access_ns", "ns"},
	{"attack.accesses", "count"},
	{"obs.trace_overhead_frac", "ratio"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
}

// spanIndex groups a trace's records by name and by id.
type spanIndex struct {
	byName map[string][]obs.Record
	byID   map[string]obs.Record
}

func indexSpans(t *obs.Tracer) spanIndex {
	ix := spanIndex{byName: map[string][]obs.Record{}, byID: map[string]obs.Record{}}
	for _, r := range t.Snapshot() {
		ix.byName[r.Name] = append(ix.byName[r.Name], r)
		ix.byID[r.Span] = r
	}
	return ix
}

// durationsMS returns the durations of every span called name.
func (ix spanIndex) durationsMS(name string) []float64 {
	var out []float64
	for _, r := range ix.byName[name] {
		out = append(out, float64(r.DurUS)/1000)
	}
	return out
}

// harnessSpans derives, from harness.exec spans and their harness.job
// parents, each executed job's queue wait (job start to exec start) and
// post-execution tail (exec end to job end), in milliseconds.
func (ix spanIndex) harnessSpans() (queueMS, tailMS []float64) {
	for _, ex := range ix.byName["harness.exec"] {
		job, ok := ix.byID[ex.Parent]
		if !ok || job.Name != "harness.job" {
			continue
		}
		queueMS = append(queueMS, float64(ex.StartUS-job.StartUS)/1000)
		tailMS = append(tailMS, float64((job.StartUS+job.DurUS)-(ex.StartUS+ex.DurUS))/1000)
	}
	return queueMS, tailMS
}

// harnessLayers reports the harness metrics of one traced pass. exec time
// comes from the harness's ExecHist when the workload owns the harness, or
// from harness.exec spans otherwise (execHist.Count == 0).
func harnessLayers(tracer *obs.Tracer, st harness.Stats, execHist obs.HistogramSnapshot, ph phase, workers int) map[string]float64 {
	ix := indexSpans(tracer)
	queue, tail := ix.harnessSpans()
	out := map[string]float64{
		"harness.overhead_us":  dispatchProbeUS(workers),
		"harness.queue_ms_p99": quantile(queue, 0.99),
		"harness.tail_us":      1000 * median(tail),
		"harness.dedup_frac":   float64(st.Deduped) / float64(st.Submitted),
		"harness.parallel_eff": ph.cpuS / (ph.wallS * float64(workers)),
	}
	if execHist.Count > 0 {
		out["harness.exec_ms_p50"] = histQuantile(execHist, 0.5)
		out["harness.exec_ms_p99"] = histQuantile(execHist, 0.99)
	} else {
		ex := ix.durationsMS("harness.exec")
		out["harness.exec_ms_p50"] = median(ex)
		out["harness.exec_ms_p99"] = quantile(ex, 0.99)
	}
	return out
}

// dispatchProbeUS is the harness's fixed per-job cost: the median, over
// several batches, of the per-job time to submit and resolve trivial jobs
// one at a time on a fresh runner.
func dispatchProbeUS(workers int) float64 {
	h := harness.MustNew(harness.Options{Workers: workers})
	defer h.Close()
	var xs []float64
	n := 0
	for b := 0; b < 7; b++ {
		const batch = 300
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			harness.Submit(h, "probe-"+strconv.Itoa(n), func() int { return 1 }).Get()
			n++
		}
		xs = append(xs, float64(time.Since(t0).Microseconds())/batch)
	}
	return median(xs)
}

// promHistogram parses one histogram's cumulative buckets out of a
// Prometheus text exposition.
func promHistogram(r io.Reader, name string) (obs.HistogramSnapshot, error) {
	var s obs.HistogramSnapshot
	sc := bufio.NewScanner(r)
	prefix := name + `_bucket{le="`
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		le, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return s, err
		}
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return s, err
			}
			s.Bounds = append(s.Bounds, b)
		}
		s.Cumulative = append(s.Cumulative, n)
		s.Count = n
	}
	return s, sc.Err()
}
