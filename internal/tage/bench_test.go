package tage

import "testing"

// benchStream generates a deterministic branch stream shaped like the
// simulator's: a working set of PCs with mixed biased/patterned outcomes.
// Pre-generated so the benchmark times the predictor, not the generator.
type benchPoint struct {
	pc    uint64
	taken bool
}

func makeStream(n int) []benchPoint {
	pts := make([]benchPoint, n)
	for i := range pts {
		pc := 0x4000_0000 + uint64(i%512)*64
		taken := (i>>(i%7))&1 == 0
		pts[i] = benchPoint{pc: pc, taken: taken}
	}
	return pts
}

// BenchmarkAccess times the full predict+update path on the paper's
// thirty-table geometry — the hottest function of the whole simulator.
func BenchmarkAccess(b *testing.B) {
	t := New(DefaultConfig(1))
	hs := t.NewHistory()
	stream := makeStream(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := stream[i&4095]
		t.Access(p.pc, p.taken, hs)
	}
}

// BenchmarkAccessTransformed times predict+update with HyBP-style key
// vectors refilled before every access, covering the keyed hot path.
func BenchmarkAccessTransformed(b *testing.B) {
	t := New(DefaultConfig(1))
	idxKeys, tagKeys := make([]uint64, t.NumTables()), make([]uint64, t.NumTables())
	t.SetKeys(idxKeys, tagKeys)
	hs := t.NewHistory()
	stream := makeStream(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := stream[i&4095]
		fillBenchKeys(idxKeys, tagKeys, p.pc)
		t.Access(p.pc, p.taken, hs)
	}
}

// fillBenchKeys derives per-table keys from pc, standing in for a
// mechanism's code-book lookup.
func fillBenchKeys(idxKeys, tagKeys []uint64, pc uint64) {
	for ti := range idxKeys {
		k := (pc * 0x9E3779B97F4A7C15) >> uint(40+ti%8)
		idxKeys[ti], tagKeys[ti] = k, k&0x7FF
	}
}

// BenchmarkHistoryUpdate isolates the folded-history maintenance cost.
func BenchmarkHistoryUpdate(b *testing.B) {
	t := New(DefaultConfig(1))
	hs := t.NewHistory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs.Update(uint64(i)*64, i&3 == 0)
	}
}

// BenchmarkHistoryReset times clearing a thread's history, which context
// switches and flushes pay.
func BenchmarkHistoryReset(b *testing.B) {
	t := New(DefaultConfig(1))
	hs := t.NewHistory()
	for i := 0; i < 4096; i++ {
		hs.Update(uint64(i)*64, i&3 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs.Reset()
	}
}

// TestHistoryZeroAllocs pins History.Update and History.Reset
// allocation-free on the paper geometry.
func TestHistoryZeroAllocs(t *testing.T) {
	hs := New(DefaultConfig(1)).NewHistory()
	i := 0
	if avg := testing.AllocsPerRun(4096, func() {
		i++
		hs.Update(uint64(i)*64, i&3 == 0)
	}); avg != 0 {
		t.Fatalf("History.Update allocates %.2f objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(256, hs.Reset); avg != 0 {
		t.Fatalf("History.Reset allocates %.2f objects/op, want 0", avg)
	}
}

// TestAccessZeroAllocs pins the hot path allocation-free: one TAGE
// predict+update must not allocate, so future changes cannot silently
// reintroduce per-lookup garbage.
func TestAccessZeroAllocs(t *testing.T) {
	tg := New(DefaultConfig(1))
	hs := tg.NewHistory()
	stream := makeStream(4096)
	// Warm the tables so allocation-path (entry claiming) also runs.
	for i, p := range stream {
		_ = i
		tg.Access(p.pc, p.taken, hs)
	}
	i := 0
	avg := testing.AllocsPerRun(4096, func() {
		p := stream[i&4095]
		i++
		tg.Access(p.pc, p.taken, hs)
	})
	if avg != 0 {
		t.Fatalf("Tage.Access allocates %.2f objects/op, want 0", avg)
	}
}

// TestAccessKeyedZeroAllocs is TestAccessZeroAllocs with key vectors
// installed and refilled per access, the way HyBP drives the shared tables.
func TestAccessKeyedZeroAllocs(t *testing.T) {
	tg := New(DefaultConfig(1))
	idxKeys, tagKeys := make([]uint64, tg.NumTables()), make([]uint64, tg.NumTables())
	tg.SetKeys(idxKeys, tagKeys)
	hs := tg.NewHistory()
	stream := makeStream(4096)
	for _, p := range stream {
		fillBenchKeys(idxKeys, tagKeys, p.pc)
		tg.Access(p.pc, p.taken, hs)
	}
	i := 0
	avg := testing.AllocsPerRun(4096, func() {
		p := stream[i&4095]
		i++
		fillBenchKeys(idxKeys, tagKeys, p.pc)
		tg.SetKeys(idxKeys, tagKeys)
		tg.Access(p.pc, p.taken, hs)
	})
	if avg != 0 {
		t.Fatalf("keyed Tage.Access allocates %.2f objects/op, want 0", avg)
	}
}

// TestPredictZeroAllocs pins the side-effect-free probe path too.
func TestPredictZeroAllocs(t *testing.T) {
	tg := New(DefaultConfig(1))
	hs := tg.NewHistory()
	stream := makeStream(4096)
	for _, p := range stream {
		tg.Access(p.pc, p.taken, hs)
	}
	i := 0
	avg := testing.AllocsPerRun(4096, func() {
		p := stream[i&4095]
		i++
		tg.Predict(p.pc, hs)
	})
	if avg != 0 {
		t.Fatalf("Tage.Predict allocates %.2f objects/op, want 0", avg)
	}
}
