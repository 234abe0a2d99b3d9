package tage

import (
	"testing"

	"hybp/internal/rng"
)

func TestHistoryBuffer(t *testing.T) {
	h := NewHistoryBuffer(8)
	if h.Size() != 64 {
		t.Fatalf("Size() = %d, want 64 (one word)", h.Size())
	}
	h.Push(true)
	h.Push(false)
	h.Push(true) // newest
	if h.Bit(0) != 1 || h.Bit(1) != 0 || h.Bit(2) != 1 {
		t.Fatalf("bits = %d %d %d", h.Bit(0), h.Bit(1), h.Bit(2))
	}
	for i := 0; i < 20; i++ { // wrap around
		h.Push(i%2 == 0)
	}
	if h.Bit(0) != 0 { // i=19 odd -> false
		t.Fatal("wraparound broke ordering")
	}
	h.Reset()
	for i := 0; i < h.Size(); i++ {
		if h.Bit(i) != 0 {
			t.Fatal("reset left bits set")
		}
	}

	// Every Bit(i) against the pushed sequence, after every push, over
	// several wraps of a multi-word ring: the newest position crosses the
	// wrap point on the first push and every Size() pushes after.
	h = NewHistoryBuffer(100)
	if h.Size() != 128 {
		t.Fatalf("Size() = %d, want 128", h.Size())
	}
	r := rng.New(17)
	var pushed []byte
	for n := 0; n < 3*h.Size()+17; n++ {
		taken := r.Bool(0.5)
		h.Push(taken)
		pushed = append(pushed, b2u(taken))
		for i := 0; i < h.Size(); i++ {
			var want byte
			if i < len(pushed) {
				want = pushed[len(pushed)-1-i]
			}
			if got := h.Bit(i); got != want {
				t.Fatalf("after %d pushes: Bit(%d) = %d, want %d", n+1, i, got, want)
			}
		}
	}
}

func TestFoldedHistoryMatchesRecompute(t *testing.T) {
	// Property: the incremental fold equals folding the history window
	// from scratch, for arbitrary outcome streams.
	const histLen, compLen = 23, 9
	h := newRefRing(histLen + 8)
	f := newFolded(histLen, compLen)
	r := rng.New(3)
	recompute := func() uint32 {
		var c uint32
		for i := histLen - 1; i >= 0; i-- {
			c = (c << 1) | uint32(h.bit(i))
			c = (c ^ (c >> compLen)) & (1<<compLen - 1)
		}
		return c
	}
	for step := 0; step < 500; step++ {
		h.push(r.Bool(0.5))
		f.update(h)
		if f.comp != recompute() {
			t.Fatalf("step %d: incremental fold %#x != recomputed %#x", step, f.comp, recompute())
		}
	}
}

func TestFoldSetMatchesFoldedHistory(t *testing.T) {
	// The lane-packed foldSet must evolve exactly like three independent
	// reference folds sharing a window, across arbitrary outcome streams
	// and the paper geometry's extreme widths (compLen 7..11, index width
	// 10, including the tag-1 lane) as well as the widest lanes New
	// accepts (index 23, tag 15, tag-1 14).
	for _, g := range []struct{ histLen, idxBits, tagBits int }{
		{23, 9, 8},
		{640, 10, 11},
		{5, 10, 8},
		{130, 10, 11},
		{46, 23, 15},
	} {
		h := NewHistoryBuffer(g.histLen + 64)
		fs := newFoldSet(g.histLen, g.idxBits, g.tagBits)
		refs := [3]foldedHistory{
			newFolded(g.histLen, g.idxBits),
			newFolded(g.histLen, g.tagBits),
			newFolded(g.histLen, g.tagBits-1),
		}
		r := rng.New(uint64(g.histLen))
		for step := 0; step < 3000; step++ {
			h.Push(r.Bool(0.5))
			var newBit uint64
			if h.Bit(0) == 1 {
				newBit = 1
			}
			oldBit := uint64(h.Bit(g.histLen))
			fs.shift(newBit*foldLaneLSB, oldBit)
			for i := range refs {
				refs[i].shift(uint32(newBit), uint32(oldBit))
			}
			if fs.idxComp() != uint64(refs[0].comp) ||
				fs.tag0Comp() != uint64(refs[1].comp) ||
				fs.tag1Comp() != uint64(refs[2].comp) {
				t.Fatalf("geom %+v step %d: foldSet lanes (%#x,%#x,%#x) != refs (%#x,%#x,%#x)",
					g, step, fs.idxComp(), fs.tag0Comp(), fs.tag1Comp(),
					refs[0].comp, refs[1].comp, refs[2].comp)
			}
		}
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(1024)
	pc := uint64(0x400)
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Fatal("bimodal did not learn a taken bias")
	}
	for i := 0; i < 10; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Fatal("bimodal did not relearn a not-taken bias")
	}
}

func TestBimodalStorage(t *testing.T) {
	b := NewBimodal(8192)
	if got := b.StorageBits(); got != 8192+4096 {
		t.Fatalf("storage = %d, want 12288 (8Kbit pred + 4Kbit hyst)", got)
	}
}

func TestBimodalValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBimodal(100) did not panic")
		}
	}()
	NewBimodal(100)
}

func TestNewValidation(t *testing.T) {
	tooMany := SmallConfig(1)
	for len(tooMany.Tables) <= maxTables {
		tooMany.Tables = append(tooMany.Tables, tooMany.Tables[0])
	}
	with := func(edit func(s *TableSpec)) Config {
		cfg := SmallConfig(1)
		edit(&cfg.Tables[2])
		return cfg
	}
	for name, cfg := range map[string]Config{
		"65 tables":         tooMany,
		"16-bit tag":        with(func(s *TableSpec) { s.TagBits = 16 }),
		"24-bit index":      with(func(s *TableSpec) { s.Entries = 1 << 24 }),
		"65536-bit history": with(func(s *TableSpec) { s.HistLen = 65536 }),
		"zero history":      with(func(s *TableSpec) { s.HistLen = 0 }),
		"negative history":  with(func(s *TableSpec) { s.HistLen = -3 }),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with %s did not panic", name)
				}
			}()
			New(cfg)
		}()
	}
	// The limits themselves are accepted: the widest tag that leaves room
	// for the valid bit, and the longest and shortest windows. (A 23-bit
	// index is accepted too; TestHistoryMatchesReference covers its lanes
	// without allocating 8M-entry tables.)
	New(with(func(s *TableSpec) { s.TagBits = 15 }))
	New(with(func(s *TableSpec) { s.HistLen = 65535 }))
	New(with(func(s *TableSpec) { s.HistLen = 1 }))
}

// runPattern feeds branches to a predictor and returns its accuracy over
// the final measurement window.
func runPattern(t *Tage, hs *History, gen func(i int) (pc uint64, taken bool), warm, measure int) float64 {
	for i := 0; i < warm; i++ {
		pc, taken := gen(i)
		t.Access(pc, taken, hs)
	}
	correct := 0
	for i := 0; i < measure; i++ {
		pc, taken := gen(warm + i)
		if t.Access(pc, taken, hs) == taken {
			correct++
		}
	}
	return float64(correct) / float64(measure)
}

func TestTageLearnsBiasedBranch(t *testing.T) {
	p := New(SmallConfig(1))
	hs := p.NewHistory()
	acc := runPattern(p, hs, func(i int) (uint64, bool) { return 0x1000, true }, 200, 1000)
	if acc < 0.999 {
		t.Fatalf("accuracy on always-taken = %v", acc)
	}
}

func TestTageLearnsAlternatingPattern(t *testing.T) {
	p := New(SmallConfig(2))
	hs := p.NewHistory()
	acc := runPattern(p, hs, func(i int) (uint64, bool) { return 0x2000, i%2 == 0 }, 500, 2000)
	if acc < 0.98 {
		t.Fatalf("accuracy on alternating pattern = %v, want ≈1 (history predictable)", acc)
	}
}

func TestTageLearnsPeriodicPattern(t *testing.T) {
	// Period-7 pattern: requires ≥7 bits of history, beyond bimodal.
	p := New(SmallConfig(3))
	hs := p.NewHistory()
	pattern := []bool{true, true, false, true, false, false, true}
	acc := runPattern(p, hs, func(i int) (uint64, bool) { return 0x3000, pattern[i%len(pattern)] }, 3000, 4000)
	if acc < 0.95 {
		t.Fatalf("accuracy on period-7 pattern = %v", acc)
	}
}

func TestTageBeatsBimodalOnCorrelatedBranches(t *testing.T) {
	// Branch B's outcome equals branch A's previous outcome: pure
	// history correlation that a bimodal cannot capture.
	gen := func(r *rng.Rand) func(i int) (uint64, bool) {
		var lastA bool
		return func(i int) (uint64, bool) {
			if i%2 == 0 {
				lastA = r.Bool(0.5)
				return 0xA000, lastA
			}
			return 0xB000, lastA
		}
	}
	p := New(SmallConfig(4))
	hs := p.NewHistory()
	tageAcc := runPattern(p, hs, gen(rng.New(9)), 4000, 8000)

	b := NewBimodal(1024)
	g := gen(rng.New(9))
	for i := 0; i < 4000; i++ {
		pc, taken := g(i)
		b.Update(pc, taken)
	}
	correct := 0
	for i := 0; i < 8000; i++ {
		pc, taken := g(4000 + i)
		if b.Predict(pc) == taken {
			correct++
		}
		b.Update(pc, taken)
	}
	bimodalAcc := float64(correct) / 8000

	// Overall accuracy: branch A is unpredictable (50%), branch B fully
	// correlated. TAGE ≈ 75%, bimodal ≈ 50–62%.
	if tageAcc < bimodalAcc+0.08 {
		t.Fatalf("tage %.3f vs bimodal %.3f: no correlation advantage", tageAcc, bimodalAcc)
	}
}

func TestLoopPredictorLearnsTripCount(t *testing.T) {
	p := New(SmallConfig(5))
	hs := p.NewHistory()
	// Loop with 37 iterations then exit; trip count beyond the tagged
	// tables' reliable reach for a single noisy context but exactly what
	// the loop predictor captures.
	gen := func(i int) (uint64, bool) {
		return 0x5000, i%37 != 36
	}
	acc := runPattern(p, hs, gen, 37*60, 37*40)
	if acc < 0.99 {
		t.Fatalf("accuracy on 37-trip loop = %v", acc)
	}
	if p.Stats().LoopHits == 0 {
		t.Fatal("loop predictor never provided a prediction")
	}
}

func TestTageRandomIsNearChance(t *testing.T) {
	p := New(SmallConfig(6))
	hs := p.NewHistory()
	r := rng.New(33)
	acc := runPattern(p, hs, func(i int) (uint64, bool) {
		return uint64(0x7000 + (i%16)*64), r.Bool(0.5)
	}, 2000, 6000)
	if acc < 0.4 || acc > 0.6 {
		t.Fatalf("accuracy on random outcomes = %v, want ≈0.5", acc)
	}
}

func TestTageAllocationsHappen(t *testing.T) {
	p := New(SmallConfig(7))
	hs := p.NewHistory()
	r := rng.New(5)
	for i := 0; i < 5000; i++ {
		p.Access(uint64(0x100+(i%64)*2), r.Bool(0.5), hs)
	}
	if p.Stats().Allocations == 0 {
		t.Fatal("no tagged-table allocations on unpredictable workload")
	}
}

func TestFlushTaggedPreservesBase(t *testing.T) {
	p := New(SmallConfig(8))
	hs := p.NewHistory()
	for i := 0; i < 100; i++ {
		p.Access(0x9000, true, hs)
	}
	if !p.Base().Predict(0x9000) {
		t.Skip("base not trained; provider absorbed all updates")
	}
	p.FlushTagged()
	if !p.Base().Predict(0x9000) {
		t.Fatal("FlushTagged cleared the base predictor")
	}
}

func TestSetBaseSwap(t *testing.T) {
	p := New(SmallConfig(9))
	a := p.Base()
	b := NewBimodal(1024)
	if old := p.SetBase(b); old != a {
		t.Fatal("SetBase did not return previous base")
	}
	if p.Base() != b {
		t.Fatal("SetBase did not install new base")
	}
}

func TestIndexTransformChangesMapping(t *testing.T) {
	// With key vectors installed, a trained branch's tagged entries become
	// unreachable — the randomization property HyBP uses on the PHT.
	p := New(SmallConfig(10))
	hs := p.NewHistory()
	pattern := []bool{true, true, false, true, false, false, true}
	acc := runPattern(p, hs, func(i int) (uint64, bool) { return 0xC000, pattern[i%len(pattern)] }, 3000, 2000)
	if acc < 0.9 {
		t.Skipf("pattern not learned (acc=%v); cannot test key change", acc)
	}
	// At steady state, tagged providers serve the history-dependent
	// contexts of the pattern.
	p.ResetStats()
	for i := 0; i < 14; i++ {
		p.Access(0xC000, pattern[i%len(pattern)], hs)
	}
	if p.Stats().ProviderHits == 0 {
		t.Fatal("no provider hits at steady state; pattern absorbed by base")
	}
	// Immediately after a key change, every previously trained tagged
	// entry must be unreachable: the first pass over the pattern's
	// contexts sees zero provider hits (the logical-isolation property).
	idxKeys := make([]uint64, p.NumTables())
	tagKeys := make([]uint64, p.NumTables())
	for ti := range idxKeys {
		idxKeys[ti], tagKeys[ti] = 0x55, 0x2AA
	}
	p.SetKeys(idxKeys, tagKeys)
	p.ResetStats()
	for i := 0; i < len(pattern); i++ {
		p.Access(0xC000, pattern[i%len(pattern)], hs)
	}
	if got := p.Stats().ProviderHits; got != 0 {
		t.Fatalf("provider hits right after key change = %d, want 0", got)
	}
	if p.Stats().Allocations == 0 {
		t.Fatal("no reallocation after key change; predictor not relearning")
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	cfg := DefaultConfig(0)
	if len(cfg.Tables) != 30 {
		t.Fatalf("tables = %d, want 30", len(cfg.Tables))
	}
	for i, s := range cfg.Tables {
		if s.Entries != 1024 {
			t.Errorf("table %d entries = %d", i, s.Entries)
		}
		want12 := i < 10
		if want12 && s.entryBits() != 12 {
			t.Errorf("table %d entry bits = %d, want 12", i, s.entryBits())
		}
		if !want12 && s.entryBits() != 16 {
			t.Errorf("table %d entry bits = %d, want 16", i, s.entryBits())
		}
		if i > 0 && s.HistLen <= cfg.Tables[i-1].HistLen {
			t.Errorf("history lengths not strictly increasing at %d", i)
		}
	}
	// Storage: 10×1K×12 + 20×1K×16 = 440 Kbit = 55 KB for tagged tables.
	p := New(cfg)
	taggedBits := 10*1024*12 + 20*1024*16
	if got := p.StorageBits(); got < taggedBits || got > taggedBits+100*1024 {
		t.Errorf("storage bits = %d, want ≥ %d (tagged) with modest SC/loop extra", got, taggedBits)
	}
	// Total with base ≈ 66.6 KB per the paper's Table IV.
	totalKB := float64(p.StorageBits()+NewBimodal(cfg.BimodalEntries).StorageBits()) / 8 / 1024
	if totalKB < 55 || totalKB > 75 {
		t.Errorf("TAGE-SC-L total = %.1f KB, want ≈66.6 KB", totalKB)
	}
}

func TestTournamentLearns(t *testing.T) {
	tp := NewTournament(DefaultTournamentConfig())
	h := tp.NewHistory()
	// Biased branch.
	for i := 0; i < 100; i++ {
		tp.Access(0x100, true, h)
	}
	if !tp.Predict(0x100, h) {
		t.Fatal("tournament did not learn bias")
	}
	// Alternating local pattern.
	correct := 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		if tp.Access(0x200, taken, h) == taken && i > 200 {
			correct++
		}
	}
	if correct < 1600 {
		t.Fatalf("tournament alternating accuracy too low: %d/1800", correct)
	}
}

func TestTageMoreAccurateThanTournament(t *testing.T) {
	// The Section VII-F premise: TAGE-SC-L buys meaningful accuracy over a
	// tournament predictor. The workload stresses the tournament's shared,
	// untagged local-counter array: hundreds of branches with distinct
	// period-8 patterns alias in its 2K localPred counters, while TAGE's
	// tagged tables disambiguate by PC.
	patterns := make([][8]bool, 384)
	r := rng.New(77)
	for i := range patterns {
		for j := range patterns[i] {
			patterns[i][j] = r.Bool(0.5)
		}
	}
	gen := func(i int) (uint64, bool) {
		br := i % len(patterns)
		phase := (i / len(patterns)) % 8
		return uint64(0x1000 + br*64), patterns[br][phase]
	}
	warm, measure := 40000, 40000

	p := New(DefaultConfig(11))
	hs := p.NewHistory()
	tageAcc := runPattern(p, hs, gen, warm, measure)

	tp := NewTournament(DefaultTournamentConfig())
	th := tp.NewHistory()
	for i := 0; i < warm; i++ {
		pc, taken := gen(i)
		tp.Access(pc, taken, th)
	}
	correct := 0
	for i := 0; i < measure; i++ {
		pc, taken := gen(warm + i)
		if tp.Access(pc, taken, th) == taken {
			correct++
		}
	}
	tournAcc := float64(correct) / float64(measure)
	if tageAcc < tournAcc+0.01 {
		t.Fatalf("tage %.4f vs tournament %.4f: no meaningful advantage", tageAcc, tournAcc)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := New(SmallConfig(12))
	hs := p.NewHistory()
	for i := 0; i < 100; i++ {
		p.Access(0x10, true, hs)
	}
	s := p.Stats()
	if s.Predictions != 100 {
		t.Fatalf("predictions = %d", s.Predictions)
	}
	if s.Mispredictions > 10 {
		t.Fatalf("mispredictions = %d on trivial branch", s.Mispredictions)
	}
	p.ResetStats()
	if p.Stats().Predictions != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestPredictHasNoTrainingEffect(t *testing.T) {
	p := New(SmallConfig(13))
	hs := p.NewHistory()
	for i := 0; i < 50; i++ {
		p.Access(0x42, true, hs)
	}
	before := p.Stats()
	for i := 0; i < 100; i++ {
		p.Predict(0x42, hs)
	}
	after := p.Stats()
	if before.Predictions != after.Predictions {
		t.Fatal("Predict changed statistics")
	}
	if !p.Predict(0x42, hs) {
		t.Fatal("trained prediction lost")
	}
}

func TestHistoryResetClearsPrediction(t *testing.T) {
	p := New(SmallConfig(14))
	hs := p.NewHistory()
	pattern := []bool{true, false, false}
	runPattern(p, hs, func(i int) (uint64, bool) { return 0x77, pattern[i%3] }, 1000, 10)
	hs.Reset()
	// After a history reset the folded images must be consistent: feeding
	// more branches must not panic and accuracy must recover.
	acc := runPattern(p, hs, func(i int) (uint64, bool) { return 0x77, pattern[i%3] }, 1000, 1000)
	if acc < 0.9 {
		t.Fatalf("accuracy after history reset = %v", acc)
	}
}

func BenchmarkTageAccess(b *testing.B) {
	p := New(DefaultConfig(1))
	hs := p.NewHistory()
	r := rng.New(1)
	pcs := make([]uint64, 256)
	outcomes := make([]bool, 256)
	for i := range pcs {
		pcs[i] = uint64(0x1000 + i*2)
		outcomes[i] = r.Bool(0.7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(pcs[i&255], outcomes[i&255], hs)
	}
}

func BenchmarkTournamentAccess(b *testing.B) {
	tp := NewTournament(DefaultTournamentConfig())
	h := tp.NewHistory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.Access(uint64(0x1000+(i&255)*2), i&3 != 0, h)
	}
}
