package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"hybp/internal/cluster"
	"hybp/internal/harness"
	"hybp/internal/obs"
	"hybp/internal/sim"
	"hybp/internal/workload"
)

// clusterScale makes every point tiny, so the lease→execute→upload round
// trip, not simulation, dominates.
func clusterScale(seed uint64) sim.Scale {
	return sim.Scale{
		MaxCycles:       20_000,
		WarmupCycles:    4_000,
		Intervals:       []uint64{5_000, 10_000},
		DefaultInterval: 10_000,
		Seed:            seed,
	}
}

// timedRemote is the coordinator as the harness sees it, with each
// offer's duration recorded by job key.
type timedRemote struct {
	coord *cluster.Coordinator
	mu    sync.Mutex
	durMS map[string]float64
}

func (t *timedRemote) Execute(ctx context.Context, key string, spec json.RawMessage) (json.RawMessage, bool, error) {
	t0 := time.Now()
	raw, ok, err := t.coord.Execute(ctx, key, spec)
	d := float64(time.Since(t0).Microseconds()) / 1000
	t.mu.Lock()
	t.durMS[key] = d
	t.mu.Unlock()
	return raw, ok, err
}

// execRecorder is the worker's ExecFunc: sim.ExecutePoint, with every
// (spec, result) kept for verification and its duration recorded by key.
type execRecorder struct {
	mu    sync.Mutex
	spec  map[string]json.RawMessage
	raw   map[string]json.RawMessage
	durMS map[string]float64
}

func (r *execRecorder) exec(key string, spec json.RawMessage) (json.RawMessage, error) {
	t0 := time.Now()
	raw, err := sim.ExecutePoint(spec)
	d := float64(time.Since(t0).Microseconds()) / 1000
	r.mu.Lock()
	r.spec[key], r.raw[key], r.durMS[key] = spec, raw, d
	r.mu.Unlock()
	return raw, err
}

func setupCluster(e *env, traced bool) (*instance, error) {
	var tracer *obs.Tracer
	if traced {
		tracer = obs.NewTracer("perfbench", 1<<17)
	}
	coord := cluster.NewCoordinator(cluster.Options{Tracer: tracer})
	mux := http.NewServeMux()
	coord.Mount(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	rec := &execRecorder{spec: map[string]json.RawMessage{}, raw: map[string]json.RawMessage{}, durMS: map[string]float64{}}
	w, err := cluster.NewWorker(cluster.WorkerOptions{
		Coordinator: ln.Addr().String(),
		Name:        "perfbench",
		Exec:        rec.exec,
		Jobs:        e.procs,
		Tracer:      tracer,
	})
	ctx, cancel := context.WithCancel(context.Background())
	worked := make(chan error, 1)
	closeAll := func() {
		cancel()
		if w != nil {
			<-worked
		}
		coord.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		_ = hs.Shutdown(sctx)
		<-served
	}
	if err != nil {
		w = nil
		closeAll()
		return nil, err
	}
	go func() { worked <- w.Run(ctx) }()
	if err := waitForWorker(coord, worked); err != nil {
		closeAll()
		return nil, err
	}
	remote := &timedRemote{coord: coord, durMS: map[string]float64{}}
	h, err := harness.New(harness.Options{Workers: e.procs, Remote: remote, Tracer: tracer})
	if err != nil {
		closeAll()
		return nil, err
	}
	r := sim.NewRunner(h)
	sc := clusterScale(e.seed)
	names := sweepExperiments()
	var benches []string
	if e.mini {
		names = []string{"fig6"}
		benches = workload.FigureApps()[:3]
	}

	var (
		runErrs []string
		ph      phase
	)
	inst := &instance{close: closeAll}
	inst.run = func() runOut {
		m := startMeter()
		for _, name := range names {
			if _, err := r.Experiment(name, sc, benches, nil); err != nil {
				runErrs = append(runErrs, fmt.Sprintf("cluster %s: %v", name, err))
			}
		}
		r.Close()
		ph = m.stop()
		if err := h.FirstErr(); err != nil {
			runErrs = append(runErrs, "cluster: "+err.Error())
		}
		st := h.Stats()
		remote.mu.Lock()
		defer remote.mu.Unlock()
		out := runOut{ops: int(st.Remote + st.Executed), attempted: int(st.Unique()), failed: int(st.Failed)}
		for _, d := range remote.durMS {
			out.latMS = append(out.latMS, d)
		}
		return out
	}
	inst.verify = func() []string {
		problems := append([]string(nil), runErrs...)
		return append(problems, verifyCluster(rec, e.procs)...)
	}
	inst.layers = func() map[string]float64 {
		out := harnessLayers(tracer, h.Stats(), obs.HistogramSnapshot{}, ph, e.procs)
		var rt, ex []float64
		remote.mu.Lock()
		rec.mu.Lock()
		for k, d := range remote.durMS {
			if x, ok := rec.durMS[k]; ok {
				rt = append(rt, d-x)
				ex = append(ex, x)
			}
		}
		rec.mu.Unlock()
		remote.mu.Unlock()
		out["cluster.roundtrip_ms_p50"] = median(rt)
		out["cluster.roundtrip_ms_p99"] = quantile(rt, 0.99)
		out["cluster.exec_ms_p50"] = median(ex)
		cm := coord.Metrics()
		out["cluster.fallback_frac"] = float64(cm.Totals.LocalFallback) / float64(h.Stats().Unique())
		return out
	}
	return inst, nil
}

// waitForWorker blocks until the coordinator counts a live worker.
func waitForWorker(coord *cluster.Coordinator, worked <-chan error) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for _, wc := range coord.Metrics().Workers {
			if wc.Live {
				return nil
			}
		}
		select {
		case err := <-worked:
			return fmt.Errorf("cluster worker stopped before registering: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	return errors.New("cluster worker did not register within 30s")
}

// verifiedPoints maps a point key to result bytes already checked against
// a local sim.ExecutePoint in this process.
var verifiedPoints = map[string]string{}

// verifyCluster recomputes every remotely executed point in-process and
// checks the uploaded bytes are identical.
func verifyCluster(rec *execRecorder, procs int) []string {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var todo []string
	for k, raw := range rec.raw {
		if verifiedPoints[k] != string(raw) {
			todo = append(todo, k)
		}
	}
	sort.Strings(todo)
	var (
		mu       sync.Mutex
		problems []string
	)
	parallel(len(todo), procs, func(i int) {
		k := todo[i]
		want, err := sim.ExecutePoint(rec.spec[k])
		mu.Lock()
		defer mu.Unlock()
		if err != nil || string(want) != string(rec.raw[k]) {
			problems = append(problems, fmt.Sprintf("cluster point %s differs from local sim.ExecutePoint (%v)", k, err))
			return
		}
		verifiedPoints[k] = string(want)
	})
	if len(rec.raw) == 0 {
		problems = append(problems, "cluster: no point was executed remotely")
	}
	return problems
}
