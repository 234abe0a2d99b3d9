// Package keys implements HyBP's key management: the randomized index keys
// table ("code book") of paper Sections V-C and V-D, its precomputed refresh
// by a strong cipher, the per-(thread, privilege) key contexts, the content
// keys, and the access-counter key-change trigger of Section VI-C.
//
// The code book removes the strong cipher from the prediction critical
// path: prediction-time index randomization is a single SRAM read (the key
// for the branch's PC group) plus an XOR, while the expensive cipher runs
// only during refreshes. Refresh timing follows the paper: after a
// pipeline fill of the cipher engine (7 cycles), one SRAM word of keys is
// produced per cycle — 263 cycles for a 1K-entry, 10-bit-key table stored
// as 256 40-bit words. Execution does not stall during a refresh; lookups
// that race the fill simply read stale keys, costing only mispredictions
// (Section V-D), which the timing model charges.
package keys

import (
	"hybp/internal/cipher"
	"hybp/internal/rng"
)

// Config describes one randomized index keys table.
type Config struct {
	// Entries is the number of index keys (as many as the last-level BTB
	// has sets, or the longest TAGE tag table has entries — paper Figure
	// 3). Power of two.
	Entries int
	// KeyBits is the width of each key (10 bits for a 1024-set L2 BTB).
	KeyBits int
	// WordBits is the SRAM word width for refresh bandwidth (40 bits in
	// the paper's example: a 1K×10b table refreshed as 256 40-bit words).
	WordBits int
	// PipeFill is the cipher engine's pipeline fill latency in cycles
	// (the paper uses 7).
	PipeFill int
	// AccessThreshold renews the code book after this many BPU accesses
	// even without a context switch (the paper sets 2^27 from the PPP
	// analysis of Section VI-A). Zero disables the counter trigger.
	AccessThreshold uint64
	// Cipher fills the code book; HyBP uses QARMA-64.
	Cipher cipher.Cipher
	// Seed stands in for the hardware RAND/PUF entropy.
	Seed uint64
}

// DefaultConfig is the paper's instance: 1K 10-bit keys, 40-bit SRAM words,
// 7-cycle pipeline fill, 2^27-access threshold, QARMA-64.
func DefaultConfig(seed uint64) Config {
	return Config{
		Entries:         1024,
		KeyBits:         10,
		WordBits:        40,
		PipeFill:        7,
		AccessThreshold: 1 << 27,
		Cipher:          cipher.NewQarma([2]uint64{rng.Mix64(seed), rng.Mix64(seed ^ 0xA5A5)}),
		Seed:            seed,
	}
}

// Table is one randomized index keys table plus its content key — the key
// material of one (thread, privilege) context.
type Table struct {
	cfg         Config
	keys        []uint64 // current code book (post-refresh values)
	old         []uint64 // previous code book, visible during the fill window
	contentKey  uint64
	keysPerWord int
	words       []uint64    // SRAM-word scratch for the batch fill
	bulk        cipher.Bulk // non-nil when cfg.Cipher batches (QARMA does)

	seedTweak    uint64 // derived from (ASID, VMID, RAND); no software visibility
	epoch        uint64 // increments every refresh
	refreshStart uint64 // cycle the in-flight refresh began
	refreshEnd   uint64 // cycle the in-flight refresh completes
	accesses     uint64 // BPU accesses since last refresh

	refreshes uint64 // total refreshes (stats)
}

// NewTable builds a Table and performs an initial, instantaneous fill (the
// hardware fills the code book at reset, long before cycle 0 of any
// measurement).
func NewTable(cfg Config) *Table {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		panic("keys: Entries must be a positive power of two")
	}
	if cfg.KeyBits <= 0 || cfg.KeyBits > 64 {
		panic("keys: KeyBits out of range")
	}
	if cfg.Cipher == nil {
		panic("keys: Cipher is required")
	}
	kpw := 1
	if cfg.WordBits > cfg.KeyBits {
		kpw = cfg.WordBits / cfg.KeyBits
	}
	t := &Table{
		cfg:         cfg,
		keys:        make([]uint64, cfg.Entries),
		old:         make([]uint64, cfg.Entries),
		keysPerWord: kpw,
		words:       make([]uint64, (cfg.Entries+kpw-1)/kpw),
		seedTweak:   rng.Mix64(cfg.Seed ^ 0x1D8AF),
	}
	t.bulk, _ = cfg.Cipher.(cipher.Bulk)
	t.fill()
	copy(t.old, t.keys)
	return t
}

// Bind derives the table's seed tweak from the software context identity:
// ASID, VMID and the hardware random value (paper Figure 4's Index Seed,
// "generated completely in hardware, with no software visibility").
func (t *Table) Bind(asid, vmid uint16) {
	t.seedTweak = rng.Mix64(uint64(asid)<<32|uint64(vmid)<<16) ^ rng.Mix64(t.cfg.Seed^0x1D8AF)
}

// fill regenerates the code book with the cipher, modeling the Figure 4
// datapath: the cipher encrypts a sequence of timer readouts under the
// index seed, and successive ciphertexts fill successive SRAM words. The
// whole refresh runs under the single tweak seed⊕epoch, so the words are
// produced as one batch when the cipher supports it — the tweak schedule
// is expanded once instead of once per word.
func (t *Table) fill() {
	t.epoch++
	mask := uint64(1)<<uint(t.cfg.KeyBits) - 1
	timer := t.refreshStart ^ rng.Mix64(t.epoch^t.seedTweak)
	tweak := t.seedTweak ^ t.epoch
	if t.bulk != nil {
		t.bulk.EncryptBlocks(t.words, timer, tweak)
	} else {
		for w := range t.words {
			t.words[w] = t.cfg.Cipher.Encrypt(timer+uint64(w), tweak)
		}
	}
	for w, word := range t.words {
		for k := 0; k < t.keysPerWord; k++ {
			i := w*t.keysPerWord + k
			if i >= t.cfg.Entries {
				break
			}
			t.keys[i] = (word >> (uint(k) * uint(t.cfg.KeyBits))) & mask
		}
	}
	t.contentKey = t.cfg.Cipher.Encrypt(timer^0xC0FFEE, tweak)
}

// RefreshLatency is the number of cycles a full code-book refresh takes:
// pipeline fill plus one word per cycle (263 for the paper's 1K example).
func (t *Table) RefreshLatency() int {
	words := (t.cfg.Entries + t.keysPerWord - 1) / t.keysPerWord
	return t.cfg.PipeFill + words
}

// Refresh begins a code-book renewal at cycle now: the content key updates
// immediately (one cycle — paper Section V-C2), the SRAM fill proceeds in
// the background, and the access counter resets. Lookups during the fill
// window return stale keys for not-yet-written entries.
func (t *Table) Refresh(now uint64) {
	// If a refresh is still in flight, the new one supersedes it; the
	// not-yet-fresh entries keep their pre-previous values, which is the
	// conservative (more stale) assumption.
	copy(t.old, t.keys)
	t.refreshStart = now
	t.refreshEnd = now + uint64(t.RefreshLatency())
	t.fill()
	t.accesses = 0
	t.refreshes++
}

// freshAt returns the cycle at which entry i holds its new value during the
// in-flight refresh.
func (t *Table) freshAt(i int) uint64 {
	word := i / t.keysPerWord
	return t.refreshStart + uint64(t.cfg.PipeFill) + uint64(word) + 1
}

// entryIndex selects the code-book entry for a branch PC ("indexed by a
// part of the branch's PC", Section V-C1).
func (t *Table) entryIndex(pc uint64) int {
	return int((pc >> 1) & uint64(t.cfg.Entries-1))
}

// Key returns the index key for pc at cycle now, honoring the stale-key
// window of an in-flight refresh.
func (t *Table) Key(pc uint64, now uint64) uint64 {
	i := t.entryIndex(pc)
	if now < t.refreshEnd && now < t.freshAt(i) {
		return t.old[i]
	}
	return t.keys[i]
}

// KeyRun fills dst[i] with Key(pc+i<<1, now): the keys of len(dst)
// consecutive PC groups starting at pc's. HyBP gives each tagged TAGE table
// its own PC-group offset, so one run keys all tables of an access. The run
// is a contiguous (wrapping) span of the code book, copied directly unless
// a refresh is in flight at now.
func (t *Table) KeyRun(dst []uint64, pc uint64, now uint64) {
	if now < t.refreshEnd {
		for i := range dst {
			dst[i] = t.Key(pc+uint64(i)<<1, now)
		}
		return
	}
	for i := t.entryIndex(pc); len(dst) > 0; i = 0 {
		dst = dst[copy(dst, t.keys[i:]):]
	}
}

// KeyStale reports whether a Key lookup at cycle now would return a stale
// (pre-refresh) key; the pipeline model uses it to attribute refresh-window
// mispredictions.
func (t *Table) KeyStale(pc uint64, now uint64) bool {
	return now < t.refreshEnd && now < t.freshAt(t.entryIndex(pc))
}

// ContentKey returns the current content key; it is updated in a single
// cycle at refresh start, so it is never stale.
func (t *Table) ContentKey() uint64 { return t.contentKey }

// Epoch returns the refresh epoch; distinct epochs imply disjoint key
// material.
func (t *Table) Epoch() uint64 { return t.epoch }

// RefreshInFlight reports whether the code book is mid-fill at cycle now.
func (t *Table) RefreshInFlight(now uint64) bool { return now < t.refreshEnd }

// NoteAccess counts one BPU access (speculative or not — the paper counts
// both with a dedicated counter) and reports whether the access threshold
// has been reached, in which case the caller should Refresh.
func (t *Table) NoteAccess() bool {
	t.accesses++
	return t.cfg.AccessThreshold != 0 && t.accesses >= t.cfg.AccessThreshold
}

// Accesses returns the access count since the last refresh.
func (t *Table) Accesses() uint64 { return t.accesses }

// Refreshes returns the total number of refreshes performed.
func (t *Table) Refreshes() uint64 { return t.refreshes }

// StorageBits is the SRAM cost of the code book (1.25 KB for the paper's
// 1K×10b table).
func (t *Table) StorageBits() int { return t.cfg.Entries * t.cfg.KeyBits }
