package keys

import (
	"testing"

	"hybp/internal/cipher"
)

// TestKeyZeroAllocs pins the prediction-path reads allocation-free: Key,
// KeyStale, and NoteAccess run once or twice per BPU access.
func TestKeyZeroAllocs(t *testing.T) {
	tab := NewTable(DefaultConfig(7))
	tab.Refresh(1000)
	i := uint64(0)
	avg := testing.AllocsPerRun(8192, func() {
		tab.Key(i*64, i)
		tab.KeyStale(i*64, i)
		tab.NoteAccess()
		i++
	})
	if avg != 0 {
		t.Fatalf("Key/KeyStale/NoteAccess allocate %.2f objects/op, want 0", avg)
	}
}

// TestKeyRunZeroAllocs pins the key-vector fill allocation-free, inside
// and outside a refresh window: HyBP runs it on every conditional branch.
func TestKeyRunZeroAllocs(t *testing.T) {
	tab := NewTable(DefaultConfig(7))
	dst := make([]uint64, 30)
	i := uint64(0)
	avg := testing.AllocsPerRun(8192, func() {
		if i%1024 == 0 {
			tab.Refresh(i)
		}
		tab.KeyRun(dst, i*64, i)
		i++
	})
	if avg != 0 {
		t.Fatalf("KeyRun allocates %.2f objects/op, want 0", avg)
	}
}

// TestRefreshZeroAllocs pins the refresh path allocation-free too: it runs
// on every context switch, so per-refresh garbage would dominate
// switch-heavy sweeps (Fig 7/8).
func TestRefreshZeroAllocs(t *testing.T) {
	tab := NewTable(DefaultConfig(7))
	i := uint64(1)
	avg := testing.AllocsPerRun(256, func() {
		tab.Refresh(i * 4_000_000)
		i++
	})
	if avg != 0 {
		t.Fatalf("Refresh allocates %.2f objects/op, want 0", avg)
	}
}

// BenchmarkRefreshWarmSchedule isolates the code-book fill with the tweak
// schedule already expanded: every word of one refresh shares the tweak
// seed⊕epoch, so after the first block the cipher runs pure table lookups.
// Contrast with BenchmarkRefresh, which also pays the per-refresh schedule
// expansion and key-extraction loop.
func BenchmarkRefreshWarmSchedule(b *testing.B) {
	cfg := DefaultConfig(7)
	bulk, ok := cfg.Cipher.(cipher.Bulk)
	if !ok {
		b.Skip("cipher does not batch")
	}
	dst := make([]uint64, 256)
	bulk.EncryptBlocks(dst, 0, 42) // warm the schedule
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bulk.EncryptBlocks(dst, uint64(i), 42)
	}
}
