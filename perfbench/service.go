package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hybp/internal/obs"
	"hybp/internal/pipeline"
	"hybp/internal/server"
	"hybp/internal/server/client"
	"hybp/internal/sim"
	"hybp/internal/workload"
)

// Service job sizing: tiny points, so admission, journal, SSE and harness
// dispatch are the bulk of each job.
const (
	serviceJobs     = 1000 // p99 then has 10 samples beyond it
	serviceMiniJobs = 120
	svcCycles       = 24_000
	svcWarmup       = 4_000
	svcInterval     = 8_000
	svcSeedPool     = 12 // distinct sim seeds per run, so baselines partly dedup
)

// serviceRequests generates the run's job list from seed: single and SMT
// points across all six mechanisms, about a quarter of them resubmitting
// an earlier request.
func serviceRequests(seed uint64, n int) []server.JobRequest {
	benches := workload.Names()
	mixes := workload.Mixes()
	mechs := sim.MechanismIDs()
	reqs := make([]server.JobRequest, 0, n)
	for i := 0; i < n; i++ {
		r := splitmix64(seed ^ uint64(i)*0x9E37)
		if i > 0 && r%4 == 0 {
			reqs = append(reqs, reqs[int(r>>8)%i])
			continue
		}
		sr := server.SimRequest{
			Mech:     string(mechs[(r>>4)%uint64(len(mechs))]),
			Interval: svcInterval,
			Cycles:   svcCycles,
			Warmup:   svcWarmup,
			Seed:     1 + splitmix64(seed+(r>>12)%svcSeedPool)%1_000_000,
		}
		if (r>>20)%3 == 0 {
			m := mixes[(r>>24)%uint64(len(mixes))]
			sr.Bench, sr.Bench2 = m.A, m.B
		} else {
			sr.Bench = benches[(r>>24)%uint64(len(benches))]
		}
		reqs = append(reqs, server.JobRequest{Sim: &sr})
	}
	return reqs
}

func setupService(e *env, traced bool) (*instance, error) {
	dir, err := os.MkdirTemp(e.tmp, "service-")
	if err != nil {
		return nil, err
	}
	var tracer *obs.Tracer
	if traced {
		tracer = obs.NewTracer("perfbench", 1<<18)
	}
	srv, err := server.New(server.Config{
		HarnessWorkers: e.procs,
		CacheDir:       filepath.Join(dir, "cache"),
		JournalDir:     filepath.Join(dir, "journal"),
		Tracer:         tracer,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: 4 * e.procs}
	c := client.New("http://" + ln.Addr().String())
	c.HTTPClient = &http.Client{Transport: tr}
	c.Counters = &client.Counters{}
	c.Tracer = tracer
	closeAll := func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Drain(ctx)
		_ = hs.Shutdown(ctx)
		<-served
		tr.CloseIdleConnections()
		os.RemoveAll(dir)
	}
	if err := c.Ready(context.Background()); err != nil {
		closeAll()
		return nil, err
	}
	n := serviceJobs
	if e.mini {
		n = serviceMiniJobs
	}
	reqs := serviceRequests(e.seed, n)

	results := make([]server.JobInfo, len(reqs))
	errs := make([]error, len(reqs))
	var ph phase
	inst := &instance{close: closeAll}
	inst.run = func() runOut {
		// A stuck server fails the pass instead of hanging the run.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		m := startMeter()
		lat := make([]float64, len(reqs))
		// procs closed-loop callers: each waits for its job's reply
		// before taking the next request.
		parallel(len(reqs), e.procs, func(i int) {
			t0 := time.Now()
			results[i], errs[i] = c.Run(ctx, reqs[i])
			lat[i] = float64(time.Since(t0).Microseconds()) / 1000
		})
		ph = m.stop()
		out := runOut{attempted: len(reqs)}
		for i := range reqs {
			if errs[i] != nil || results[i].Status != server.StatusDone {
				out.failed++
				continue
			}
			out.ops++
			out.latMS = append(out.latMS, lat[i])
		}
		return out
	}
	inst.verify = func() []string { return verifyService(reqs, results, errs, e.procs) }
	inst.layers = func() map[string]float64 { return serviceLayers(srv, c, tracer, ph, e.procs) }
	return inst, nil
}

// verifiedService maps a request to the result bytes already checked
// against a direct computation in this process; later passes with the
// same seed reproduce them exactly, so they are compared, not recomputed.
var verifiedService = map[string]string{}

// verifyService checks every job: each distinct request's result against
// its points recomputed directly with sim.ExecutePoint (the mechanism's raw
// thread counters byte for byte, the baseline IPC value for value), and
// every resubmission against its first submission's result.
func verifyService(reqs []server.JobRequest, results []server.JobInfo, errs []error, procs int) []string {
	var (
		mu       sync.Mutex
		problems []string
	)
	fail := func(p string) {
		mu.Lock()
		problems = append(problems, p)
		mu.Unlock()
	}
	first := map[string]int{}
	var unique []int
	for i, r := range reqs {
		b, _ := json.Marshal(r)
		k := string(b)
		f, ok := first[k]
		switch {
		case !ok:
			first[k] = i
			unique = append(unique, i)
		case errs[i] != nil || string(results[i].Result) != string(results[f].Result):
			fail(fmt.Sprintf("service job %d: resubmission result differs from job %d", i, f))
		}
	}
	var todo []int
	for _, i := range unique {
		b, _ := json.Marshal(reqs[i])
		if v, ok := verifiedService[string(b)]; !ok || errs[i] != nil || v != string(results[i].Result) {
			todo = append(todo, i)
		}
	}
	parallel(len(todo), procs, func(k int) {
		i := todo[k]
		if p := checkServiceJob(reqs[i], results[i], errs[i]); p != "" {
			fail(p)
			return
		}
		b, _ := json.Marshal(reqs[i])
		mu.Lock()
		verifiedService[string(b)] = string(results[i].Result)
		mu.Unlock()
	})
	return problems
}

func checkServiceJob(req server.JobRequest, ji server.JobInfo, err error) string {
	sr := req.Sim
	name := fmt.Sprintf("service job %s/%s+%s seed %d", sr.Mech, sr.Bench, sr.Bench2, sr.Seed)
	if err != nil {
		return name + ": " + err.Error()
	}
	if ji.Status != server.StatusDone {
		return fmt.Sprintf("%s: status %s %s", name, ji.Status, ji.Error)
	}
	var got server.SimJobResult
	if err := json.Unmarshal(ji.Result, &got); err != nil {
		return name + ": " + err.Error()
	}
	direct := func(id sim.MechanismID) ([]pipeline.ThreadResult, error) {
		sp := sim.PointSpec{Kind: sim.PointSingle, Bench: sr.Bench, Mech: sim.Mech(id),
			Interval: sr.Interval, Cycles: sr.Cycles, Warmup: sr.Warmup, RootSeed: sr.Seed}
		if sr.Bench2 != "" {
			sp.Kind, sp.Bench, sp.A, sp.B = sim.PointSMT, "", sr.Bench, sr.Bench2
		}
		spec, _ := json.Marshal(sp)
		raw, err := sim.ExecutePoint(spec)
		if err != nil {
			return nil, err
		}
		if sr.Bench2 != "" {
			var res pipeline.Result
			err = json.Unmarshal(raw, &res)
			return res.Threads, err
		}
		var tr pipeline.ThreadResult
		err = json.Unmarshal(raw, &tr)
		return []pipeline.ThreadResult{tr}, err
	}
	mech, err := direct(sim.MechanismID(sr.Mech))
	if err != nil {
		return name + ": " + err.Error()
	}
	base, err := direct(sim.MechBaseline)
	if err != nil {
		return name + ": " + err.Error()
	}
	if len(got.Threads) != len(mech) {
		return fmt.Sprintf("%s: %d threads, want %d", name, len(got.Threads), len(mech))
	}
	for i, th := range got.Threads {
		want, _ := json.Marshal(mech[i])
		if string(th.Raw) != string(want) {
			return fmt.Sprintf("%s: thread %d counters differ from the direct computation", name, i)
		}
		if th.BaselineIPC != base[i].IPC() {
			return fmt.Sprintf("%s: thread %d baseline IPC %v, direct %v", name, i, th.BaselineIPC, base[i].IPC())
		}
	}
	return ""
}

// serviceLayers reports the server, client, journal and harness metrics of
// a traced service pass.
func serviceLayers(srv *server.Server, c *client.Client, tracer *obs.Tracer, ph phase, procs int) map[string]float64 {
	ix := indexSpans(tracer)
	var submit, wait []float64
	subByParent := map[string]obs.Record{}
	for _, s := range ix.byName["client.submit"] {
		subByParent[s.Parent] = s
		submit = append(submit, float64(s.DurUS)/1000)
	}
	for _, run := range ix.byName["client.run"] {
		if s, ok := subByParent[run.Span]; ok {
			wait = append(wait, float64(run.DurUS-s.DurUS)/1000)
		}
	}
	met := srv.Metrics()
	out := harnessLayers(tracer, srv.Stats(), obs.HistogramSnapshot{}, ph, procs)
	out["server.submit_ms_p50"] = median(submit)
	out["server.submit_ms_p99"] = quantile(submit, 0.99)
	out["server.wait_ms_p50"] = median(wait)
	out["server.wait_ms_p99"] = quantile(wait, 0.99)
	out["server.rejected"] = float64(met.Server.JobsRejected)
	out["client.retries"] = float64(c.Counters.Total())
	if met.Journal != nil {
		jobs := met.Server.JobsSubmitted - met.Server.JobsDeduped
		out["journal.appends_per_job"] = float64(met.Journal.Appended) / float64(jobs)
	}
	resp, err := c.HTTPClient.Get(c.BaseURL + "/metrics.prom")
	if err == nil {
		defer resp.Body.Close()
		if h, err := promHistogram(resp.Body, "hybp_journal_fsync_ms"); err == nil && h.Count > 0 {
			out["journal.fsync_ms_p50"] = histQuantile(h, 0.5)
			out["journal.fsync_ms_p99"] = histQuantile(h, 0.99)
		}
	}
	for k, v := range out {
		if math.IsNaN(v) {
			delete(out, k)
		}
	}
	return out
}
