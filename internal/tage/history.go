// Package tage implements the direction-prediction substrate: the
// TAGE-SC-L predictor of the paper's baseline core (Seznec, CBP-5 2016; the
// paper's Figure 3(b) instance), its bimodal base predictor, and the
// decades-old tournament predictor the paper compares against in Section
// VII-F.
//
// Geometry follows the paper's caption: a PC-indexed bimodal base with
// 8 Kbit prediction and 4 Kbit (shared) hysteresis arrays, and thirty
// equal-sized tagged tables in two bank groups with 8-bit and 11-bit tags,
// 1K entries each, signed prediction counters and useful counters. A
// statistical corrector and a loop predictor complete the SC-L part.
//
// The tagged tables accept per-table index and tag key vectors (Tage.SetKeys)
// so the secure mechanisms (internal/secure) can randomize them without
// forking predictor logic, and the base predictor is a swappable component
// so HyBP can physically isolate it per (thread, privilege) context.
package tage

// HistoryBuffer is a circular global-history bit buffer. Bit 0 is the most
// recent outcome. The ring is bit-packed into 64-bit words and holds a
// power-of-two number of bits, so a position wraps with one AND instead of
// a compare: Bit has no branch, and a word shift count (position & 63) needs
// no range guard.
type HistoryBuffer struct {
	words []uint64
	mask  uint // capacity in bits − 1
	pos   uint // ring position of the most recent bit
}

// NewHistoryBuffer returns a buffer holding at least size bits, all zero.
// The capacity is size rounded up to a power of two, and at least 64.
func NewHistoryBuffer(size int) *HistoryBuffer {
	h := newHistoryBuffer(size)
	return &h
}

func newHistoryBuffer(size int) HistoryBuffer {
	n := 64
	for n < size {
		n <<= 1
	}
	return HistoryBuffer{words: make([]uint64, n/64), mask: uint(n - 1)}
}

// Push records a new most-recent bit.
func (h *HistoryBuffer) Push(taken bool) {
	h.pos = (h.pos - 1) & h.mask
	var b uint64
	if taken {
		b = 1
	}
	s := h.pos & 63
	w := &h.words[h.pos>>6]
	*w = *w&^(1<<s) | b<<s
}

// Bit returns the i-th most recent bit (0 = newest). i must be in
// [0, Size()).
func (h *HistoryBuffer) Bit(i int) byte {
	j := (h.pos + uint(i)) & h.mask
	return byte(h.words[j>>6] >> (j & 63) & 1)
}

// Size returns the buffer capacity in bits.
func (h *HistoryBuffer) Size() int { return int(h.mask + 1) }

// Reset zeroes the history.
func (h *HistoryBuffer) Reset() {
	clear(h.words)
	h.pos = 0
}

// foldSet keeps one tagged table's three folded histories: its global
// history window of origLen bits folded (by XOR) into the index width, the
// tag width and the tag width − 1, the standard TAGE trick that keeps
// per-prediction work O(1) instead of O(history length). The three folds
// sit in three 24-bit lanes of a single uint64, so the per-branch fold
// maintenance — the hottest loop in the simulator — costs one load, one
// store and lane-parallel shift/XOR math per table. Each lane evolves
// exactly like an independent fold register (the reference foldedHistory
// in the tests; TestFoldSetMatchesFoldedHistory and
// TestHistoryMatchesReference pin the equivalence). A lane holds at most
// compLen+1 ≤ 24 bits after the shift-in (New bounds the index width at 23
// and the tag width at 15), so the 24-bit spacing keeps every lane's
// overflow bit inside its own lane.
type foldSet struct {
	packed   uint64 // lanes at bits 0 (index), 24 (tag), 48 (tag-1)
	outMask  uint64 // oldBit injection point (1<<(origLen%compLen)) per lane
	compMask uint64 // (1<<compLen)-1 per lane
	origLen  uint16 // shared original history window length
	cIdx     uint8  // compLen of the index lane
	cTag0    uint8  // compLen of the tag lane
	cTag1    uint8  // compLen of the tag-1 lane
}

// foldLaneBits is the lane spacing; foldLaneLSB has a 1 in each lane's LSB.
const (
	foldLaneBits = 24
	foldLaneLSB  = 1 | 1<<foldLaneBits | 1<<(2*foldLaneBits)
)

func newFoldSet(origLen, idxBits, tagBits int) foldSet {
	f := foldSet{
		origLen: uint16(origLen),
		cIdx:    uint8(idxBits), cTag0: uint8(tagBits), cTag1: uint8(tagBits - 1),
	}
	for i, compLen := range [3]int{idxBits, tagBits, tagBits - 1} {
		lane := uint(foldLaneBits * i)
		f.outMask |= 1 << (uint(origLen%compLen) + lane)
		f.compMask |= (1<<uint(compLen) - 1) << lane
	}
	return f
}

// shift folds the newest bit in and oldBit out of all three lanes at once.
// newBits is the newest bit already spread to every lane's LSB
// (newBit*foldLaneLSB). Per lane: shift in, XOR the outgoing bit at
// origLen%compLen, fold the overflow bit (bit compLen, the only bit above
// the comp mask) back into the LSB, and mask to compLen. The three overflow
// folds are one XOR: each reads a bit (cIdx, 24+cTag0, 48+cTag1) that the
// other two never write (0, 24, 48), so folding them together equals
// folding them one after another. The &63 on each count is free and lets the compiler
// drop the count ≥ 64 guard on the variable shifts.
func (f *foldSet) shift(newBits, oldBit uint64) {
	p := f.packed<<1 | newBits
	p ^= -oldBit & f.outMask
	p ^= p>>(f.cIdx&63)&1 |
		p>>(f.cTag0&63)&(1<<foldLaneBits) |
		p>>(f.cTag1&63)&(1<<(2*foldLaneBits))
	f.packed = p & f.compMask
}

// idxComp returns the index lane. (The probe reads all three lanes
// straight from packed, letting its index and tag masks cut the others.)
func (f *foldSet) idxComp() uint64 { return f.packed & (1<<foldLaneBits - 1) }

// History is the per-hardware-thread speculation history consumed by a Tage
// instance: the global history register, a path history, and the folded
// images per tagged table. Each SMT thread owns one History while the
// prediction tables themselves are shared (or partitioned) per the active
// defense mechanism.
type History struct {
	ghr   HistoryBuffer
	path  uint64
	folds []foldSet // per tagged table: index/tag/tag-1 folds, lane-packed
}

// newHistory returns an all-zero history for the tagged-table geometry
// tables. The ring holds more bits than the longest window, so every
// table's outgoing bit is still in it.
func newHistory(tables []TableSpec) *History {
	maxLen := 0
	for _, s := range tables {
		maxLen = max(maxLen, s.HistLen)
	}
	hs := &History{
		ghr:   newHistoryBuffer(maxLen + 1),
		folds: make([]foldSet, len(tables)),
	}
	for i, s := range tables {
		hs.folds[i] = newFoldSet(s.HistLen, bitsFor(s.Entries), s.TagBits)
	}
	return hs
}

// Update pushes a resolved branch outcome into the history.
//
// The newest bit is the outcome just pushed, shared by every fold and
// spread across the three lanes once; the outgoing bit depends only on the
// window length, which a table's three lanes share. So each table costs one
// masked ring read and one lane-parallel shift, with the ring's words,
// position and mask held in registers across the loop. This loop is the
// hottest in the simulator; keep it free of compares, divisions and shift
// guards.
func (hs *History) Update(pc uint64, taken bool) {
	hs.ghr.Push(taken)
	hs.path = (hs.path << 1) | ((pc >> 2) & 1)
	var newBit uint64
	if taken {
		newBit = 1
	}
	newBits := newBit * foldLaneLSB
	words, pos, mask := hs.ghr.words, hs.ghr.pos, hs.ghr.mask
	folds := hs.folds
	for i := range folds {
		f := &folds[i]
		j := (pos + uint(f.origLen)) & mask
		f.shift(newBits, words[j>>6]>>(j&63)&1)
	}
}

// Reset clears all history state (used when a software context is swapped
// in with no retained predictor state). The fold of an all-zero window is
// zero, so the lanes are cleared directly: O(tables), not O(history bits).
func (hs *History) Reset() {
	hs.ghr.Reset()
	hs.path = 0
	folds := hs.folds
	for i := range folds {
		folds[i].packed = 0
	}
}
