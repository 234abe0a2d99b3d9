package tage

import (
	"testing"

	"hybp/internal/rng"
)

// refRing is the reference global history for the differential tests: a
// plain circular byte buffer, one byte per outcome, wrapped with a
// conditional subtract. Bit 0 is the most recent outcome.
type refRing struct {
	bits []byte
	pos  int // index of the most recent bit
}

func newRefRing(size int) *refRing { return &refRing{bits: make([]byte, size)} }

func (h *refRing) push(taken bool) {
	h.pos--
	if h.pos < 0 {
		h.pos = len(h.bits) - 1
	}
	h.bits[h.pos] = b2u(taken)
}

func (h *refRing) bit(i int) byte {
	j := h.pos + i
	if j >= len(h.bits) {
		j -= len(h.bits)
	}
	return h.bits[j]
}

func (h *refRing) reset() {
	clear(h.bits)
	h.pos = 0
}

// foldedHistory is the reference fold register: history of length origLen
// folded (by XOR) into compLen bits, maintained one register per fold. Each
// lane of a foldSet must evolve exactly like one of these.
type foldedHistory struct {
	comp     uint32
	origLen  uint16
	compLen  uint8
	outPoint uint8 // origLen % compLen, where the outgoing bit lands
}

func newFolded(origLen, compLen int) foldedHistory {
	return foldedHistory{
		compLen:  uint8(compLen),
		origLen:  uint16(origLen),
		outPoint: uint8(origLen % compLen),
	}
}

// shift folds in the newest history bit and folds out oldBit, the bit that
// just fell off the end of this fold's original window.
func (f *foldedHistory) shift(newBit, oldBit uint32) {
	f.comp = (f.comp << 1) | newBit
	f.comp ^= oldBit << f.outPoint
	f.comp ^= f.comp >> f.compLen
	f.comp &= (1 << f.compLen) - 1
}

// update folds in the newest bit and folds out the bit that just fell off
// the end of the original history window. It must be called after push.
func (f *foldedHistory) update(h *refRing) {
	f.shift(uint32(h.bit(0)), uint32(h.bit(int(f.origLen))))
}

// reset recomputes the fold from scratch over the buffer.
func (f *foldedHistory) reset(h *refRing) {
	f.comp = 0
	for i := int(f.origLen) - 1; i >= 0; i-- {
		f.comp = (f.comp << 1) | uint32(h.bit(i))
		f.comp = (f.comp ^ (f.comp >> f.compLen)) & (1<<f.compLen - 1)
	}
}

// tag0Comp and tag1Comp return a foldSet's tag and tag-1 lanes.
func (f *foldSet) tag0Comp() uint64 { return f.packed >> foldLaneBits & (1<<foldLaneBits - 1) }
func (f *foldSet) tag1Comp() uint64 { return f.packed >> (2 * foldLaneBits) }

// refHistory is History rebuilt from the reference parts: a byte ring and
// three independent fold registers per table, each updated on its own.
type refHistory struct {
	ring  *refRing
	path  uint64
	folds [][3]foldedHistory
}

func newRefHistory(tables []TableSpec) *refHistory {
	maxLen := 0
	for _, s := range tables {
		maxLen = max(maxLen, s.HistLen)
	}
	r := &refHistory{ring: newRefRing(maxLen + 1), folds: make([][3]foldedHistory, len(tables))}
	for i, s := range tables {
		idxBits := bitsFor(s.Entries)
		r.folds[i] = [3]foldedHistory{
			newFolded(s.HistLen, idxBits),
			newFolded(s.HistLen, s.TagBits),
			newFolded(s.HistLen, s.TagBits-1),
		}
	}
	return r
}

func (r *refHistory) update(pc uint64, taken bool) {
	r.ring.push(taken)
	r.path = (r.path << 1) | ((pc >> 2) & 1)
	for i := range r.folds {
		for j := range r.folds[i] {
			r.folds[i][j].update(r.ring)
		}
	}
}

// reset clears the ring and refolds every window from it.
func (r *refHistory) reset() {
	r.ring.reset()
	r.path = 0
	for i := range r.folds {
		for j := range r.folds[i] {
			r.folds[i][j].reset(r.ring)
		}
	}
}

// diffHistory reports the first table whose lanes differ from the
// reference's fold registers.
func diffHistory(t *testing.T, step int, hs *History, ref *refHistory) {
	t.Helper()
	if hs.path != ref.path {
		t.Fatalf("step %d: path %#x, reference %#x", step, hs.path, ref.path)
	}
	for i := range ref.folds {
		f, r := &hs.folds[i], &ref.folds[i]
		if f.idxComp() != uint64(r[0].comp) || f.tag0Comp() != uint64(r[1].comp) ||
			f.tag1Comp() != uint64(r[2].comp) {
			t.Fatalf("step %d table %d: lanes (%#x,%#x,%#x), reference (%#x,%#x,%#x)",
				step, i, f.idxComp(), f.tag0Comp(), f.tag1Comp(), r[0].comp, r[1].comp, r[2].comp)
		}
	}
}

// historyGeometries are the table sets the history tests run: the shipped
// configs plus edge geometries for the lane packing and the ring.
func historyGeometries() map[string][]TableSpec {
	return map[string][]TableSpec{
		"default": DefaultConfig(1).Tables,
		"small":   SmallConfig(1).Tables,
		// Windows just below and equal to multiples of each lane width
		// (index 10, tag 11, tag-1 10; index 23, tag 15, tag-1 14), the
		// widest lanes New accepts, the shortest window, and a longest
		// window of 63 so the ring is exactly one 64-bit word and wraps
		// thousands of times.
		"edge": {
			{Entries: 1024, TagBits: 11, HistLen: 1},
			{Entries: 1024, TagBits: 11, HistLen: 9},
			{Entries: 1024, TagBits: 11, HistLen: 10},
			{Entries: 1024, TagBits: 11, HistLen: 21},
			{Entries: 1024, TagBits: 11, HistLen: 22},
			{Entries: 1 << 23, TagBits: 15, HistLen: 45},
			{Entries: 1 << 23, TagBits: 15, HistLen: 46},
			{Entries: 1024, TagBits: 15, HistLen: 28},
			{Entries: 1024, TagBits: 15, HistLen: 30},
			{Entries: 2, TagBits: 2, HistLen: 62},
			{Entries: 1024, TagBits: 8, HistLen: 63},
		},
		// The longest window New accepts (a 65536-bit ring), beside
		// windows one bit past a word boundary and exactly a power of two.
		"long": {
			{Entries: 1024, TagBits: 11, HistLen: 65},
			{Entries: 1024, TagBits: 8, HistLen: 1024},
			{Entries: 1024, TagBits: 11, HistLen: 65535},
		},
	}
}

// TestHistoryMatchesReference runs History in lockstep with refHistory and
// compares every lane after every outcome.
func TestHistoryMatchesReference(t *testing.T) {
	const steps = 200_000
	for name, tables := range historyGeometries() {
		t.Run(name, func(t *testing.T) {
			hs, ref := newHistory(tables), newRefHistory(tables)
			if wraps := steps / hs.ghr.Size(); wraps < 3 {
				t.Fatalf("ring of %d bits wraps only %d times", hs.ghr.Size(), wraps)
			}
			r := rng.New(uint64(len(tables)))
			for step := 0; step < steps; step++ {
				pc, taken := r.Uint64(), r.Bool(0.5)
				hs.Update(pc, taken)
				ref.update(pc, taken)
				diffHistory(t, step, hs, ref)
			}
		})
	}
}

// TestHistoryResetMatchesFresh checks that Reset leaves a History equal to
// the reference after its bit-by-bit refold, and that it then evolves
// exactly like a freshly built History.
func TestHistoryResetMatchesFresh(t *testing.T) {
	for name, tables := range historyGeometries() {
		t.Run(name, func(t *testing.T) {
			hs, ref := newHistory(tables), newRefHistory(tables)
			r := rng.New(99)
			for i := 0; i < 5000; i++ {
				pc, taken := r.Uint64(), r.Bool(0.5)
				hs.Update(pc, taken)
				ref.update(pc, taken)
			}
			hs.Reset()
			ref.reset()
			diffHistory(t, -1, hs, ref)
			fresh := newHistory(tables)
			for step := 0; step < 3000; step++ {
				pc, taken := r.Uint64(), r.Bool(0.5)
				hs.Update(pc, taken)
				ref.update(pc, taken)
				fresh.Update(pc, taken)
				diffHistory(t, step, hs, ref)
				for i := range fresh.folds {
					if hs.folds[i].packed != fresh.folds[i].packed {
						t.Fatalf("step %d table %d: folds %#x, fresh %#x",
							step, i, hs.folds[i].packed, fresh.folds[i].packed)
					}
				}
			}
			for i := 0; i < fresh.ghr.Size(); i++ {
				if hs.ghr.Bit(i) != fresh.ghr.Bit(i) {
					t.Fatalf("ring bit %d: %d, fresh %d", i, hs.ghr.Bit(i), fresh.ghr.Bit(i))
				}
			}
		})
	}
}
