package main

import (
	"encoding/json"
	"fmt"
	"time"

	"hybp/internal/btb"
	"hybp/internal/keys"
	"hybp/internal/pipeline"
	"hybp/internal/secure"
	"hybp/internal/sim"
	"hybp/internal/tage"
	"hybp/internal/workload"
)

// bpuCall is one recorded call on the secure.BPU interface.
type bpuCall struct {
	kind     callKind
	ctx      secure.Context
	br       secure.Branch
	now      uint64
	incoming uint16
	from, to keys.Privilege
}

type callKind uint8

const (
	callAccess callKind = iota
	callSwitch
	callPriv
)

// timedBPU wraps a secure.BPU in the pipeline: it times a sample of
// accesses and every (rare) switch and privilege change, and records the
// call stream for standalone replay.
type timedBPU struct {
	secure.BPU
	access   sampler
	otherNs  float64 // switches and privilege changes, all timed
	calls    []bpuCall
	recorded bool
}

func (t *timedBPU) Access(ctx secure.Context, b secure.Branch, now uint64) secure.Result {
	if t.recorded {
		t.calls = append(t.calls, bpuCall{kind: callAccess, ctx: ctx, br: b, now: now})
	}
	if !t.access.tick() {
		return t.BPU.Access(ctx, b, now)
	}
	t0 := time.Now()
	r := t.BPU.Access(ctx, b, now)
	t.access.add(time.Since(t0))
	return r
}

func (t *timedBPU) OnContextSwitch(thread uint8, incoming uint16, now uint64) {
	if t.recorded {
		t.calls = append(t.calls, bpuCall{kind: callSwitch, ctx: secure.Context{Thread: thread}, incoming: incoming, now: now})
	}
	t0 := time.Now()
	t.BPU.OnContextSwitch(thread, incoming, now)
	t.otherNs += float64(time.Since(t0).Nanoseconds())
}

func (t *timedBPU) OnPrivilegeChange(thread uint8, from, to keys.Privilege, now uint64) {
	if t.recorded {
		t.calls = append(t.calls, bpuCall{kind: callPriv, ctx: secure.Context{Thread: thread}, from: from, to: to, now: now})
	}
	t0 := time.Now()
	t.BPU.OnPrivilegeChange(thread, from, to, now)
	t.otherNs += float64(time.Since(t0).Nanoseconds())
}

// countedSource counts a workload.Source's calls and times its (rare)
// timer bursts; Next is priced by a standalone loop instead, as it is too
// cheap to time per call.
type countedSource struct {
	workload.Source
	nexts   *uint64
	burstNs *float64
}

func (s countedSource) Next() workload.Event {
	*s.nexts++
	return s.Source.Next()
}

func (s countedSource) TimerBurst(n int) []workload.Event {
	t0 := time.Now()
	evs := s.Source.TimerBurst(n)
	*s.burstNs += float64(time.Since(t0).Nanoseconds())
	return evs
}

// newMechBPU builds a mechanism the way sim builds a plain point's BPU.
func newMechBPU(id sim.MechanismID, threads int, seed uint64) secure.BPU {
	cfg := secure.Config{Threads: threads, Seed: seed}
	switch id {
	case sim.MechFlush:
		return secure.NewFlush(cfg)
	case sim.MechPartition:
		return secure.NewPartition(cfg)
	case sim.MechReplication:
		return secure.NewReplication(cfg, 1.0)
	case sim.MechBRB:
		return secure.NewBRB(cfg)
	case sim.MechHyBP:
		return secure.NewHyBP(cfg)
	}
	return secure.NewBaseline(cfg)
}

// streamSeed and partner mirror sim's per-benchmark stream seed and
// time-sharing partner, so a probe point replays the same streams as the
// sweep's point with the same spec.
func streamSeed(root uint64, bench string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(bench); i++ {
		h = (h ^ uint64(bench[i])) * 1099511628211
	}
	return root ^ h
}

func partner(bench string) workload.Profile {
	if bench == "gcc" {
		return workload.Get("perlbench")
	}
	return workload.Get("gcc")
}

// probePoint is one simulation point run through pipeline.New with the
// timed BPU and counted sources, built the way sim.PointSpec builds it.
type probePoint struct {
	spec    sim.PointSpec
	bpu     *timedBPU
	nexts   uint64
	burstNs float64
	runNs   float64
	res     pipeline.Result
}

func (p *probePoint) run(record bool) {
	sp := p.spec
	threads := 1
	if sp.Kind == sim.PointSMT {
		threads = 2
	}
	p.bpu = &timedBPU{BPU: newMechBPU(sp.Mech.ID, threads, sp.RootSeed), recorded: record}
	src := func(prof workload.Profile, seed uint64) workload.Source {
		return countedSource{Source: workload.New(prof, seed), nexts: &p.nexts, burstNs: &p.burstNs}
	}
	var ts []pipeline.ThreadSpec
	if sp.Kind == sim.PointSMT {
		sa, sb := streamSeed(sp.RootSeed, sp.A), streamSeed(sp.RootSeed, sp.B)^0xF00
		ts = []pipeline.ThreadSpec{
			{Source: src(workload.Get(sp.A), sa), OtherSource: src(partner(sp.A), sa^0xB)},
			{Source: src(workload.Get(sp.B), sb), OtherSource: src(partner(sp.B), sb^0xB)},
		}
	} else {
		s := streamSeed(sp.RootSeed, sp.Bench)
		ts = []pipeline.ThreadSpec{{Source: src(workload.Get(sp.Bench), s), OtherSource: src(partner(sp.Bench), s^0xB)}}
	}
	s := pipeline.New(pipeline.Config{
		Core:           pipeline.DefaultCoreConfig(),
		BPU:            p.bpu,
		Threads:        ts,
		SwitchInterval: sp.Interval,
		MaxCycles:      sp.Cycles,
		WarmupCycles:   sp.Warmup,
	})
	t0 := time.Now()
	p.res = s.Run()
	p.runNs = float64(time.Since(t0).Nanoseconds())
}

// check compares the probe point's result with sim.ExecutePoint of its
// spec: the wrapped run must reproduce the point exactly.
func (p *probePoint) check() error {
	spec, _ := json.Marshal(p.spec)
	want, err := sim.ExecutePoint(spec)
	if err != nil {
		return err
	}
	var got []byte
	if p.spec.Kind == sim.PointSMT {
		got, _ = json.Marshal(p.res)
	} else {
		got, _ = json.Marshal(p.res.Threads[0])
	}
	if string(got) != string(want) {
		return fmt.Errorf("probe point %s differs from sim.ExecutePoint", spec)
	}
	return nil
}

// Standalone replays run in lockstep: every replay advances one chunk
// (1/replayChunks of its stream), then the next replay does, and so on, so
// the parts and the whole they are compared with are timed milliseconds
// apart. This repeats replayReps times and each chunk keeps its fastest
// time; a replay's time is the sum over its chunks. On a noisy shared host
// that removes most interference, which comes in bursts far shorter than a
// whole replay.
const (
	replayReps   = 7
	replayChunks = 64
)

// measurement is one standalone replay: start builds fresh state, chunk
// replays the c-th of replayChunks equal parts of its stream and returns
// the nanoseconds spent in the measured calls.
type measurement struct {
	name  string
	start func()
	chunk func(c int) float64
}

// part is the c-th of replayChunks equal parts of n items.
func part(c, n int) (lo, hi int) { return c * n / replayChunks, (c + 1) * n / replayChunks }

func fastestChunks(ms []measurement) map[string]float64 {
	best := map[string][]float64{}
	for _, m := range ms {
		best[m.name] = make([]float64, replayChunks)
	}
	for r := 0; r < replayReps; r++ {
		for _, m := range ms {
			m.start()
		}
		for c := 0; c < replayChunks; c++ {
			for _, m := range ms {
				if v := m.chunk(c); r == 0 || v < best[m.name][c] {
					best[m.name][c] = v
				}
			}
		}
	}
	out := map[string]float64{}
	for name, xs := range best {
		for _, x := range xs {
			out[name] += x
		}
	}
	return out
}

// simProbe runs one single and one SMT point per mechanism through the
// timed wrappers (pipeline self time and throughput), then replays each
// mechanism's recorded single-point stream into a fresh BPU of that
// mechanism (secure.access_ns.*), and the baseline's stream into
// standalone TAGE, BTB and code-book instances.
func simProbe(e *env) (map[string]float64, error) {
	sc := sim.Tiny()
	apps := workload.FigureApps()
	mixes := workload.Mixes()
	bench := apps[splitmix64(e.seed)%uint64(len(apps))]
	mix := mixes[splitmix64(e.seed+1)%uint64(len(mixes))]
	out := map[string]float64{}
	var (
		streams               = map[sim.MechanismID][]bpuCall{}
		runNs, bpuNs, burstNs float64
		nexts, branches       float64
	)
	for _, id := range sim.MechanismIDs() {
		for _, smt := range []bool{false, true} {
			sp := sim.PointSpec{Kind: sim.PointSingle, Bench: bench, Mech: sim.Mech(id),
				Interval: sc.DefaultInterval, Cycles: sc.MaxCycles, Warmup: sc.WarmupCycles, RootSeed: e.seed}
			if smt {
				sp.Kind, sp.Bench, sp.A, sp.B = sim.PointSMT, "", mix.A, mix.B
			}
			p := &probePoint{spec: sp}
			p.run(!smt)
			if err := p.check(); err != nil {
				return nil, err
			}
			runNs += p.runNs
			bpuNs += p.bpu.access.totalNs() + p.bpu.otherNs
			burstNs += p.burstNs
			nexts += float64(p.nexts)
			branches += float64(p.bpu.access.calls)
			if !smt {
				streams[id] = p.bpu.calls
			}
		}
	}

	var ms []measurement
	accesses := map[sim.MechanismID]float64{}
	for _, id := range sim.MechanismIDs() {
		calls := streams[id]
		for _, c := range calls {
			if c.kind == callAccess {
				accesses[id]++
			}
		}
		var bpu secure.BPU
		ms = append(ms, measurement{"bpu." + string(id),
			func() { bpu = newMechBPU(id, 1, e.seed) },
			func(c int) float64 {
				lo, hi := part(c, len(calls))
				return replayBPU(calls[lo:hi], bpu)
			}})
	}
	const nextCalls = 200_000
	nextNs := fastestOf(replayReps, func() float64 {
		g := workload.New(workload.Get(bench), streamSeed(e.seed, bench))
		t0 := time.Now()
		for i := 0; i < nextCalls; i++ {
			g.Next()
		}
		return float64(time.Since(t0).Nanoseconds())
	}) / nextCalls
	lr := newLayerReplay(streams[sim.MechBaseline], e.seed)
	ms = append(ms, lr.measurements()...)
	best := fastestChunks(ms)

	for _, id := range sim.MechanismIDs() {
		out["secure.access_ns."+string(id)] = best["bpu."+string(id)] / accesses[id]
	}
	out["workload.next_ns"] = nextNs
	out["pipeline.self_ns"] = (runNs - bpuNs - burstNs - nexts*nextNs) / branches
	out["pipeline.branches_per_s"] = branches / (runNs / 1e9)
	out["secure.privchange_ns"] = privChangeProbeNs(e.seed)
	out["secure.hybp_extra_ns"] = out["secure.access_ns.hybp"] - out["secure.access_ns.baseline"]
	for k, v := range lr.metrics(best) {
		out[k] = v
	}
	// Layer sum: tage.access_ns, btb.lookup_ns and btb.insert_ns times
	// their call counts add up to the tage+btb replay, which is compared
	// with the replay of the baseline BPU itself on the same stream.
	layerSum := best["tage+btb"] / float64(len(lr.all))
	base := out["secure.access_ns.baseline"]
	out["secure.unaccounted_frac"] = (base - layerSum) / base
	fmt.Printf("layer sum: baseline access %.1f ns, tage+btb %.1f ns per access (%d accesses); hybp extra %.1f ns vs keys.key_ns %.2f ns\n",
		base, layerSum, len(lr.all), out["secure.hybp_extra_ns"], out["keys.key_ns"])
	return out, nil
}

// privChangeProbeNs is the mean cost of a privilege change across the six
// mechanisms: user→kernel→user round trips on warmed BPUs, a few hundred
// accesses apart, each call timed alone.
func privChangeProbeNs(seed uint64) float64 {
	var total, n float64
	for _, id := range sim.MechanismIDs() {
		bpu := newMechBPU(id, 1, seed)
		gen := workload.New(workload.Get("gcc"), seed)
		var now uint64
		ctx := secure.Context{ASID: 10}
		for i := 0; i < 100; i++ {
			for j := 0; j < 300; j++ {
				ev := gen.Next()
				now += uint64(ev.Gap + 1)
				bpu.Access(ctx, ev.Branch, now)
			}
			for _, to := range []keys.Privilege{keys.Kernel, keys.User} {
				t0 := time.Now()
				bpu.OnPrivilegeChange(0, ctx.Priv, to, now)
				total += float64(time.Since(t0).Nanoseconds()) - clockOverhead()
				n++
				ctx.Priv = to
			}
		}
	}
	return total / n
}

// replayBPU feeds a recorded call stream into bpu and returns the time
// spent in its accesses, each run of consecutive accesses timed as a
// whole.
func replayBPU(calls []bpuCall, bpu secure.BPU) float64 {
	var ns float64
	for i := 0; i < len(calls); {
		c := calls[i]
		switch c.kind {
		case callSwitch:
			bpu.OnContextSwitch(c.ctx.Thread, c.incoming, c.now)
			i++
		case callPriv:
			bpu.OnPrivilegeChange(c.ctx.Thread, c.from, c.to, c.now)
			i++
		default:
			j := i
			t0 := time.Now()
			for ; j < len(calls) && calls[j].kind == callAccess; j++ {
				bpu.Access(calls[j].ctx, calls[j].br, calls[j].now)
			}
			ns += float64(time.Since(t0).Nanoseconds())
			i = j
		}
	}
	return ns
}

// layerReplay replays a recorded baseline stream through fresh standalone
// TAGE, BTB and code-book instances with the baseline's geometry.
type layerReplay struct {
	seed    uint64
	ordered []bpuCall // accesses and switches, in order
	cond    []bpuCall // conditional accesses, and switches (history resets)
	taken   []bpuCall // taken non-return accesses (BTB traffic)
	all     []bpuCall // every access
	inserts []bpuCall // the BTB inserts the taken stream causes
	nCond   int
	tage    *tage.Tage // the TAGE-only replay's predictor, for its Stats
	beyond  int        // lookups that reach past L1 (the §V-B filter rate)
}

func newLayerReplay(calls []bpuCall, seed uint64) *layerReplay {
	lr := &layerReplay{seed: seed}
	for _, c := range calls {
		if c.kind == callSwitch {
			lr.cond = append(lr.cond, c)
			lr.ordered = append(lr.ordered, c)
		}
		if c.kind != callAccess {
			continue
		}
		lr.all = append(lr.all, c)
		lr.ordered = append(lr.ordered, c)
		if c.br.Kind == secure.Cond {
			lr.cond = append(lr.cond, c)
			lr.nCond++
		}
		if c.br.Taken && c.br.Kind != secure.Return {
			lr.taken = append(lr.taken, c)
		}
	}
	// One untimed BTB pass counts the filter rate and collects the insert
	// sequence for the insert-only replay.
	hier := lr.newHier()
	for _, c := range lr.taken {
		target, level, hit := hier.Lookup(c.br.PC)
		if !hit || level > 1 {
			lr.beyond++
		}
		if !hit || target != c.br.Target {
			hier.Insert(c.br.PC, c.br.Target, owner(c))
			lr.inserts = append(lr.inserts, c)
		}
	}
	return lr
}

// newHier is the baseline's Zen BTB hierarchy with plain keys.
func (lr *layerReplay) newHier() *btb.Hierarchy {
	cfgs := btb.ZenConfig(lr.seed)
	tables := make([]*btb.Table, len(cfgs))
	sets := make([]int, len(cfgs))
	for i, c := range cfgs {
		tables[i], sets[i] = btb.New(c), c.Sets
	}
	return btb.NewHierarchy(tables, btb.PlainKeyFunc(sets, 16))
}

func owner(c bpuCall) uint16 { return uint16(c.ctx.Thread)<<1 | uint16(c.ctx.Priv) }

func (lr *layerReplay) measurements() []measurement {
	var (
		tg, tg2     *tage.Tage
		hs, hs2     [2]*tage.History
		hier, ihier *btb.Hierarchy
	)
	return []measurement{
		// TAGE: Access per conditional branch, history reset at
		// switches, as the baseline does.
		{"tage",
			func() {
				tg = tage.New(tage.DefaultConfig(lr.seed))
				hs = [2]*tage.History{tg.NewHistory(), tg.NewHistory()}
				lr.tage = tg
			},
			func(c int) float64 {
				lo, hi := part(c, len(lr.cond))
				t0 := time.Now()
				for _, x := range lr.cond[lo:hi] {
					if x.kind == callSwitch {
						hs[x.ctx.Thread].Reset()
						continue
					}
					tg.Access(x.br.PC, x.br.Taken, hs[x.ctx.Thread])
				}
				return float64(time.Since(t0).Nanoseconds())
			}},
		// TAGE and BTB together, in the baseline's order: the BTB's cost
		// is its marginal cost next to TAGE (this replay minus the
		// TAGE-only one), as it is inside the BPU.
		{"tage+btb",
			func() {
				tg2 = tage.New(tage.DefaultConfig(lr.seed))
				hs2 = [2]*tage.History{tg2.NewHistory(), tg2.NewHistory()}
				hier = lr.newHier()
			},
			func(c int) float64 {
				lo, hi := part(c, len(lr.ordered))
				t0 := time.Now()
				for _, x := range lr.ordered[lo:hi] {
					if x.kind == callSwitch {
						hs2[x.ctx.Thread].Reset()
						continue
					}
					if x.br.Kind == secure.Cond {
						tg2.Access(x.br.PC, x.br.Taken, hs2[x.ctx.Thread])
					}
					if x.br.Taken && x.br.Kind != secure.Return {
						if target, _, hit := hier.Lookup(x.br.PC); !hit || target != x.br.Target {
							hier.Insert(x.br.PC, x.br.Target, owner(x))
						}
					}
				}
				return float64(time.Since(t0).Nanoseconds())
			}},
		{"btb.insert",
			func() { ihier = lr.newHier() },
			func(c int) float64 {
				lo, hi := part(c, len(lr.inserts))
				t0 := time.Now()
				for _, x := range lr.inserts[lo:hi] {
					ihier.Insert(x.br.PC, x.br.Target, owner(x))
				}
				return float64(time.Since(t0).Nanoseconds())
			}},
	}
}

// fastestOf runs f reps times and returns its fastest result.
func fastestOf(reps int, f func() float64) float64 {
	best := f()
	for i := 1; i < reps; i++ {
		best = min(best, f())
	}
	return best
}

// cheapNs times the calls too cheap for chunked replay, whose chunks would
// each start on caches the other replays had just evicted: a whole loop
// of History.Update over the conditional branches and of code-book Key
// lookups over every access, fastest of replayReps.
func (lr *layerReplay) cheapNs() (historyNs, keyNs float64) {
	historyNs = fastestOf(replayReps, func() float64 {
		hist := tage.New(tage.DefaultConfig(lr.seed)).NewHistory()
		t0 := time.Now()
		for _, x := range lr.cond {
			if x.kind == callAccess {
				hist.Update(x.br.PC, x.br.Taken)
			}
		}
		return float64(time.Since(t0).Nanoseconds())
	}) / float64(lr.nCond)
	kt := keys.NewTable(keys.DefaultConfig(lr.seed))
	keyNs = fastestOf(replayReps, func() float64 {
		t0 := time.Now()
		for _, x := range lr.all {
			keySink += kt.Key(x.br.PC, x.now)
		}
		return float64(time.Since(t0).Nanoseconds())
	}) / float64(len(lr.all))
	return historyNs, keyNs
}

// keySink keeps the timed Key loop's results live.
var keySink uint64

// metrics turns the fastest replay times into per-layer metrics.
func (lr *layerReplay) metrics(best map[string]float64) map[string]float64 {
	st := lr.tage.Stats()
	historyNs, keyNs := lr.cheapNs()
	return map[string]float64{
		"tage.access_ns":         best["tage"] / float64(lr.nCond),
		"tage.history_update_ns": historyNs,
		"tage.provider_frac":     float64(st.ProviderHits) / float64(st.Predictions),
		"tage.alloc_fail_frac":   float64(st.AllocFailures) / float64(st.Allocations+st.AllocFailures),
		"btb.insert_ns":          best["btb.insert"] / float64(len(lr.inserts)),
		"btb.lookup_ns":          (best["tage+btb"] - best["tage"] - best["btb.insert"]) / float64(len(lr.taken)),
		"btb.beyond_l1_frac":     float64(lr.beyond) / float64(len(lr.taken)),
		"keys.key_ns":            keyNs,
	}
}
