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
// recent outcome.
type HistoryBuffer struct {
	bits []byte
	pos  int // index of the most recent bit
	size int
}

// NewHistoryBuffer returns a buffer holding size bits, all zero.
func NewHistoryBuffer(size int) *HistoryBuffer {
	return &HistoryBuffer{bits: make([]byte, size), size: size}
}

// Push records a new most-recent bit.
func (h *HistoryBuffer) Push(taken bool) {
	h.pos--
	if h.pos < 0 {
		h.pos = h.size - 1
	}
	if taken {
		h.bits[h.pos] = 1
	} else {
		h.bits[h.pos] = 0
	}
}

// Bit returns the i-th most recent bit (0 = newest). i must be in
// [0, Size()); every folded window is shorter than the buffer, so the
// wrap never needs a full modulo (which would cost a divide on the
// hottest path of the whole simulator).
func (h *HistoryBuffer) Bit(i int) byte {
	j := h.pos + i
	if j >= h.size {
		j -= h.size
	}
	return h.bits[j]
}

// Size returns the buffer capacity in bits.
func (h *HistoryBuffer) Size() int { return h.size }

// Reset zeroes the history.
func (h *HistoryBuffer) Reset() {
	for i := range h.bits {
		h.bits[i] = 0
	}
	h.pos = 0
}

// foldedHistory incrementally maintains history of length origLen folded
// (by XOR) into compLen bits, the standard TAGE implementation trick that
// keeps per-prediction work O(1) instead of O(history length). The fields
// are deliberately narrow (8 bytes total): a 30-table geometry walks 90 of
// these per branch, so they must stay resident in L1.
type foldedHistory struct {
	comp     uint32
	origLen  uint16 // ≤ 640 at the paper's geometry
	compLen  uint8  // ≤ 11 (index or tag width)
	outPoint uint8  // < compLen
}

func newFolded(origLen, compLen int) foldedHistory {
	return foldedHistory{
		compLen:  uint8(compLen),
		origLen:  uint16(origLen),
		outPoint: uint8(origLen % compLen),
	}
}

// shift folds in the newest history bit and folds out oldBit, the bit that
// just fell off the end of this fold's original window. The caller reads
// both bits from the history buffer once and feeds every fold that shares
// the window length.
func (f *foldedHistory) shift(newBit, oldBit uint32) {
	f.comp = (f.comp << 1) | newBit
	f.comp ^= oldBit << f.outPoint
	f.comp ^= f.comp >> f.compLen
	f.comp &= (1 << f.compLen) - 1
}

// update folds in the newest bit and folds out the bit that just fell off
// the end of the original history window. It must be called after
// HistoryBuffer.Push with the same buffer.
func (f *foldedHistory) update(h *HistoryBuffer) {
	f.shift(uint32(h.Bit(0)), uint32(h.Bit(int(f.origLen))))
}

// reset recomputes the fold from scratch over the buffer; used when history
// is cleared wholesale.
func (f *foldedHistory) reset(h *HistoryBuffer) {
	f.comp = 0
	for i := int(f.origLen) - 1; i >= 0; i-- {
		f.comp = (f.comp << 1) | uint32(h.Bit(i))
		f.comp = (f.comp ^ (f.comp >> f.compLen)) & (1<<f.compLen - 1)
	}
	// The incremental update and this recomputation agree on the all-zero
	// history, which is the only state reset is used with.
}

// foldSet packs one tagged table's three folds (index width, tag width,
// tag width − 1) into three 24-bit lanes of a single uint64, so the
// per-branch fold maintenance — the hottest loop in the simulator — costs
// one load, one store, and lane-parallel shift/XOR math per table instead
// of three separate read-modify-writes. The lane arithmetic is exactly
// foldedHistory.shift per lane (TestFoldSetMatchesFoldedHistory pins the
// equivalence): all folds share a compLen ≤ 11, so a lane value never
// exceeds 12 bits after the shift-in and the 24-bit lane spacing keeps the
// per-lane fold shifts from contaminating a neighbor below its comp mask.
type foldSet struct {
	packed   uint64 // lanes at bits 0 (index), 24 (tag), 48 (tag-1)
	outMask  uint64 // oldBit injection point (1<<outPoint) per lane
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
	i := newFolded(origLen, idxBits)
	t0 := newFolded(origLen, tagBits)
	t1 := newFolded(origLen, tagBits-1)
	return foldSet{
		origLen: uint16(origLen),
		cIdx:    i.compLen, cTag0: t0.compLen, cTag1: t1.compLen,
		outMask: 1<<i.outPoint |
			1<<(foldLaneBits+uint(t0.outPoint)) |
			1<<(2*foldLaneBits+uint(t1.outPoint)),
		compMask: (uint64(1)<<i.compLen - 1) |
			(uint64(1)<<t0.compLen-1)<<foldLaneBits |
			(uint64(1)<<t1.compLen-1)<<(2*foldLaneBits),
	}
}

// shift folds the newest bit in and oldBit out of all three lanes at once.
// Per lane this is exactly foldedHistory.shift: shift-in, XOR the outgoing
// bit at outPoint, fold the overflow bit (comp >> compLen, which is a
// single bit because a lane holds ≤ compLen+1 bits here) back into the
// LSB, then mask to compLen. Cross-lane garbage from the per-lane fold
// shifts lands above each comp mask and is cleared by the final AND.
func (f *foldSet) shift(newBit, oldBit uint64) {
	p := f.packed<<1 | newBit*foldLaneLSB
	p ^= (-oldBit) & f.outMask
	p ^= (p >> f.cIdx) & 1
	p ^= (p >> f.cTag0) & (1 << foldLaneBits)
	p ^= (p >> f.cTag1) & (1 << (2 * foldLaneBits))
	f.packed = p & f.compMask
}

// reset recomputes all three lanes from the buffer via the reference fold.
func (f *foldSet) reset(h *HistoryBuffer) {
	lanes := [3]foldedHistory{
		newFolded(int(f.origLen), int(f.cIdx)),
		newFolded(int(f.origLen), int(f.cTag0)),
		newFolded(int(f.origLen), int(f.cTag1)),
	}
	f.packed = 0
	for i := range lanes {
		lanes[i].reset(h)
		f.packed |= uint64(lanes[i].comp) << (foldLaneBits * uint(i))
	}
}

// Lane accessors for index computation.
func (f *foldSet) idxComp() uint64  { return f.packed & (1<<foldLaneBits - 1) }
func (f *foldSet) tag0Comp() uint64 { return f.packed >> foldLaneBits & (1<<foldLaneBits - 1) }
func (f *foldSet) tag1Comp() uint64 { return f.packed >> (2 * foldLaneBits) }

// History is the per-hardware-thread speculation history consumed by a Tage
// instance: the global history register, a path history, and the folded
// images per tagged table. Each SMT thread owns one History while the
// prediction tables themselves are shared (or partitioned) per the active
// defense mechanism.
type History struct {
	ghr   *HistoryBuffer
	path  uint64
	folds []foldSet // per tagged table: index/tag/tag-1 folds, lane-packed
}

// Update pushes a resolved branch outcome into the history.
//
// The newest bit is the outcome just pushed, shared by every fold; the
// outgoing bit depends only on the window length, which the three lanes of
// a table's foldSet share — so each table costs one buffer read and one
// lane-parallel shift. This loop is the hottest in the simulator (the
// folds are two thirds of TAGE time); keep it free of bounds checks and
// divisions.
func (hs *History) Update(pc uint64, taken bool) {
	hs.ghr.Push(taken)
	hs.path = (hs.path << 1) | ((pc >> 2) & 1)
	var newBit uint64
	if taken {
		newBit = 1
	}
	folds := hs.folds
	for i := range folds {
		oldBit := uint64(hs.ghr.Bit(int(folds[i].origLen)))
		folds[i].shift(newBit, oldBit)
	}
}

// Reset clears all history state (used when a software context is swapped
// in with no retained predictor state).
func (hs *History) Reset() {
	hs.ghr.Reset()
	hs.path = 0
	for i := range hs.folds {
		hs.folds[i].reset(hs.ghr)
	}
}
