package main

import (
	"fmt"
	"time"

	"hybp/internal/attack"
	"hybp/internal/harness"
	"hybp/internal/keys"
	"hybp/internal/secure"
	"hybp/internal/sim"
	"hybp/internal/tage"
	"hybp/internal/workload"
)

// wantTable3 is the Table III verdict matrix the internal/sim tests pin
// (TestTable3Verdicts: physical isolation and HyBP defend both reuse
// columns, Flush loses SMT reuse) completed with the contention columns
// sim.Table3 derives structurally; it is the paper's Table III.
var wantTable3 = []sim.Table3Row{
	t3row("BTB", "Flush", "No Protection", "No Protection"),
	t3row("BTB", "Physical Isolation", "Defend", "Defend"),
	t3row("BTB", "HyBP", "Defend", "Defend"),
	t3row("PHT", "Flush", "No Protection", "Defend"),
	t3row("PHT", "Physical Isolation", "Defend", "Defend"),
	t3row("PHT", "HyBP", "Defend", "Defend"),
}

// t3row is a Table III row whose single-thread columns both read Defend.
func t3row(structure, mech, smtReuse, smtContention string) sim.Table3Row {
	return sim.Table3Row{Structure: structure, Mechanism: mech,
		SingleReuse: "Defend", SingleContention: "Defend",
		SMTReuse: smtReuse, SMTContention: smtContention}
}

// PPP batch and blind-contention sizing (scale 1/16 BPUs, as the attack
// tests use). A job of this workload is one PPP pair: the same seeded
// trial against the baseline and against HyBP.
const (
	pppPairs     = 2000 // p99 then has 20 samples beyond it
	pppMiniPairs = 20
	pppS, pppW   = 64, 7
	pppRepeats   = 3
	blindN       = 1140
	blindS       = 1024
	blindTrials  = 20000
)

// attackBPU times a sampled subset of an attack's BPU accesses.
type attackBPU struct {
	secure.BPU
	acc *sampler
}

func (a attackBPU) Access(ctx secure.Context, b secure.Branch, now uint64) secure.Result {
	if !a.acc.tick() {
		return a.BPU.Access(ctx, b, now)
	}
	t0 := time.Now()
	r := a.BPU.Access(ctx, b, now)
	a.acc.add(time.Since(t0))
	return r
}

func setupAttack(e *env, traced bool) (*instance, error) {
	h, err := harness.New(harness.Options{Workers: e.procs})
	if err != nil {
		return nil, err
	}
	r := sim.NewRunner(h)
	sc := sim.Tiny()
	sc.Seed = e.seed
	pairs := pppPairs
	if e.mini {
		pairs = pppMiniPairs
	}
	type trial struct{ bpuSeed, pppSeed uint64 }
	plan := make([]trial, pairs)
	for i := range plan {
		k := splitmix64(e.seed ^ uint64(i)<<20)
		plan[i] = trial{bpuSeed: k, pppSeed: splitmix64(k)}
	}
	x := secure.Branch{PC: 0x20F00, Target: 0x21000, Taken: true, Kind: secure.Jump}
	gadget := []secure.Branch{{PC: 0x30000, Target: 0x30100, Taken: true, Kind: secure.Jump}}
	attacker := secure.Context{Thread: 0, Priv: keys.User, ASID: 2}
	victim := secure.Context{Thread: 1, Priv: keys.User, ASID: 3}

	var (
		t3       sim.Table3Result
		t3err    error
		accesses uint64
		acc      sampler
	)
	inst := &instance{close: func() {}}
	inst.run = func() runOut {
		if !e.mini {
			res, err := r.Experiment("table3", sc, nil, nil)
			t3, _ = res.(sim.Table3Result)
			t3err = err
		}
		lat := make([]float64, 0, len(plan))
		for _, t := range plan {
			t0 := time.Now()
			for _, hybp := range []bool{false, true} {
				cfg := secure.Config{Threads: 2, Seed: t.bpuSeed, Scale: 1.0 / 16}
				var bpu secure.BPU
				if hybp {
					bpu = secure.NewHyBP(cfg)
				} else {
					bpu = secure.NewBaseline(cfg)
				}
				if traced {
					bpu = attackBPU{BPU: bpu, acc: &acc}
				}
				ah := attack.NewHarness(bpu, attacker, victim)
				attack.PPP(ah, attack.PPPConfig{S: pppS, W: pppW, Repeats: pppRepeats, Seed: t.pppSeed}, x, gadget)
				accesses += ah.Accesses
			}
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		attack.BlindContentionMonteCarlo(blindN, blindS, pppW, blindTrials, e.seed)
		return runOut{ops: len(lat), attempted: len(lat), latMS: lat}
	}
	inst.verify = func() []string {
		if e.mini {
			return nil
		}
		if t3err != nil {
			return []string{"table3: " + t3err.Error()}
		}
		if len(t3.Rows) != len(wantTable3) {
			return []string{fmt.Sprintf("table3: %d rows, want %d", len(t3.Rows), len(wantTable3))}
		}
		var problems []string
		for i, row := range t3.Rows {
			if row != wantTable3[i] {
				problems = append(problems, fmt.Sprintf("table3 row %d = %+v, want %+v", i, row, wantTable3[i]))
			}
		}
		return problems
	}
	inst.layers = func() map[string]float64 {
		out := map[string]float64{
			"attack.access_ns": acc.perCallNs(),
			"attack.accesses":  float64(accesses),
		}
		for k, v := range switchProbe(e.seed) {
			out[k] = v
		}
		return out
	}
	return inst, nil
}

// switchProbe times the context-switch paths the attack workload leans
// on: mechanism switches on warmed full-size BPUs, TAGE history resets,
// and code-book refreshes. Each figure is a median of individually timed
// calls.
func switchProbe(seed uint64) map[string]float64 {
	out := map[string]float64{}
	mechs := []struct {
		name string
		mk   func(secure.Config) secure.BPU
	}{
		{"flush", func(c secure.Config) secure.BPU { return secure.NewFlush(c) }},
		{"partition", func(c secure.Config) secure.BPU { return secure.NewPartition(c) }},
		{"hybp", func(c secure.Config) secure.BPU { return secure.NewHyBP(c) }},
	}
	for _, m := range mechs {
		bpu := m.mk(secure.Config{Threads: 1, Seed: seed})
		gen := workload.New(workload.Get("gcc"), seed)
		var now uint64
		feed := func(n int) {
			for i := 0; i < n; i++ {
				ev := gen.Next()
				now += uint64(ev.Gap + 1)
				bpu.Access(secure.Context{Priv: ev.Priv, ASID: 10}, ev.Branch, now)
			}
		}
		feed(20000)
		var xs []float64
		for i := 0; i < 60; i++ {
			feed(1000)
			t0 := time.Now()
			bpu.OnContextSwitch(0, uint16(10+i%2), now)
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/1000)
		}
		out["secure.switch_us."+m.name] = median(xs)
	}

	tg := tage.New(tage.DefaultConfig(seed))
	hs := tg.NewHistory()
	gen := workload.New(workload.Get("gcc"), seed)
	var xs []float64
	for i := 0; i < 300; i++ {
		for j := 0; j < 64; j++ {
			ev := gen.Next()
			hs.Update(ev.Branch.PC, ev.Branch.Taken)
		}
		t0 := time.Now()
		hs.Reset()
		xs = append(xs, float64(time.Since(t0).Nanoseconds()))
	}
	out["tage.history_reset_ns"] = median(xs)

	kt := keys.NewTable(keys.DefaultConfig(seed))
	xs = xs[:0]
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		kt.Refresh(uint64(i) * 1000)
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1000)
	}
	out["keys.refresh_us"] = median(xs)
	return out
}
