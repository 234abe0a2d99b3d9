package tage

import (
	"math"
	"math/bits"

	"hybp/internal/rng"
)

// TableSpec describes one tagged TAGE table.
type TableSpec struct {
	// Entries is the number of entries (power of two).
	Entries int
	// TagBits is the partial tag width (8 or 11 in the paper's instance).
	TagBits int
	// UBits is the useful-counter width (1 or 2).
	UBits int
	// HistLen is the global history length hashed into this table's index.
	HistLen int
}

// entryBits is the storage width of one entry: tag + 3-bit signed counter +
// useful bits (12 bits and 16 bits for the paper's two bank groups).
func (s TableSpec) entryBits() int { return s.TagBits + 3 + s.UBits }

// Config describes a TAGE-SC-L instance.
type Config struct {
	// Tables lists the tagged tables, shortest history first.
	Tables []TableSpec
	// BimodalEntries sizes the base predictor's prediction array.
	BimodalEntries int
	// UseSC enables the statistical corrector.
	UseSC bool
	// UseLoop enables the loop predictor.
	UseLoop bool
	// SCBiasEntries and SCGEntries size the statistical corrector's bias
	// and history tables (defaults 4096 and 1024 when zero); LoopSets
	// sizes the loop predictor (default 16 sets of 4 ways). Scaled-down
	// partitions shrink these along with the tagged tables.
	SCBiasEntries int
	SCGEntries    int
	LoopSets      int
	// Seed seeds the allocation RNG.
	Seed uint64
}

// DefaultConfig returns the paper's TAGE-SC-L geometry (Figure 3 caption):
// thirty 1K-entry tagged tables — ten 12-bit-entry banks with 8-bit tags and
// twenty 16-bit-entry banks with 11-bit tags — over an 8 Kbit/4 Kbit bimodal
// base, with SC and loop components. History lengths grow geometrically from
// 4 to 640.
func DefaultConfig(seed uint64) Config {
	tables := make([]TableSpec, 30)
	const minHist, maxHist = 4.0, 640.0
	ratio := 1.0
	if len(tables) > 1 {
		ratio = math.Pow(maxHist/minHist, 1.0/float64(len(tables)-1))
	}
	h := minHist
	prev := 0
	for i := range tables {
		hl := int(h + 0.5)
		if hl <= prev {
			hl = prev + 1
		}
		prev = hl
		spec := TableSpec{Entries: 1024, HistLen: hl}
		if i < 10 {
			spec.TagBits, spec.UBits = 8, 1
		} else {
			spec.TagBits, spec.UBits = 11, 2
		}
		tables[i] = spec
		h *= ratio
	}
	return Config{
		Tables:         tables,
		BimodalEntries: 8192,
		UseSC:          true,
		UseLoop:        true,
		Seed:           seed,
	}
}

// SmallConfig returns a scaled-down instance for fast unit tests.
func SmallConfig(seed uint64) Config {
	tables := []TableSpec{
		{Entries: 256, TagBits: 8, UBits: 1, HistLen: 4},
		{Entries: 256, TagBits: 8, UBits: 1, HistLen: 8},
		{Entries: 256, TagBits: 11, UBits: 2, HistLen: 16},
		{Entries: 256, TagBits: 11, UBits: 2, HistLen: 32},
		{Entries: 256, TagBits: 11, UBits: 2, HistLen: 64},
	}
	return Config{Tables: tables, BimodalEntries: 1024, UseSC: true, UseLoop: true, Seed: seed}
}

// tagEntry is one tagged-table entry's counters: Ctr is the 3-bit signed
// prediction counter (sign = direction), U the useful counter. The entry's
// tag lives in a separate array (Tage.tags) so the probe reads only tags.
type tagEntry struct {
	ctr int8
	u   uint8
}

// validBit marks a stored tag as valid. Tags are at most 15 bits wide, so a
// zeroed (flushed) slot never equals a probe's tag|validBit.
const validBit = 1 << 15

// maxTables bounds the tagged-table count: the probe records hits in one
// uint64 bitmask.
const maxTables = 64

// tableGeom is one tagged table's probe geometry: where its slots start in
// the shared tag and counter slabs, and its index and tag masks. Keeping the
// three together lets the probe loop walk one slice.
type tableGeom struct {
	off     uint64 // first slot of the table in Tage.tags and Tage.ents
	mask    uint64 // Entries − 1
	tagMask uint64 // 1<<TagBits − 1
}

// Stats counts predictor activity.
type Stats struct {
	Predictions    uint64
	Mispredictions uint64
	ProviderHits   uint64 // predictions served by a tagged table
	BaseHits       uint64 // predictions served by the bimodal base
	SCFlips        uint64 // predictions overridden by the statistical corrector
	LoopHits       uint64 // predictions served by the loop predictor
	Allocations    uint64
	AllocFailures  uint64
}

// Tage is a TAGE-SC-L direction predictor.
//
// The tagged tables are shared structures (remapped by the key vectors
// installed with SetKeys); the bimodal base is a swappable component so
// mechanisms can physically isolate it per context; per-thread speculation
// history lives in History values created by NewHistory.
type Tage struct {
	cfg  Config
	geom []tableGeom // per table: slab offset and index/tag masks
	tags []uint16    // all tables' slots: stored tag | validBit, 0 when empty
	ents []tagEntry  // all tables' counters, parallel to tags
	base *Bimodal

	// idxKeys and tagKeys are the per-table keys XORed into every tagged
	// access; they alias noKeys when no vector is installed.
	idxKeys, tagKeys []uint64
	noKeys           [maxTables]uint64

	// pidx and ptag hold each table's effective slot (an absolute index
	// into tags and ents) and tag|validBit for the access in flight,
	// computed once by probe and reused by train and allocate.
	pidx [maxTables]uint64
	ptag [maxTables]uint16

	useAltOnNA int8 // 4-bit counter choosing alt prediction for fresh entries
	tick       uint64

	sc   *statCorrector
	loop *loopPredictor
	rand *rng.Rand

	stats Stats
}

// New builds a Tage from cfg.
func New(cfg Config) *Tage {
	n := len(cfg.Tables)
	if n == 0 {
		panic("tage: config needs at least one tagged table")
	}
	if n > maxTables {
		panic("tage: config has more than 64 tagged tables")
	}
	t := &Tage{
		cfg:  cfg,
		geom: make([]tableGeom, n),
		base: NewBimodal(cfg.BimodalEntries),
		rand: rng.New(cfg.Seed ^ 0x7a6e),
	}
	t.SetKeys(nil, nil)
	total := 0
	for i, spec := range cfg.Tables {
		if spec.Entries <= 0 || spec.Entries&(spec.Entries-1) != 0 {
			panic("tage: table entries must be a positive power of two")
		}
		// The folds pack each table's index, tag and tag−1 widths into
		// 24-bit lanes that must hold compLen+1 bits (history.go).
		if bitsFor(spec.Entries) > foldLaneBits-1 {
			panic("tage: an index wider than 23 bits overflows a fold lane")
		}
		if spec.TagBits > 15 {
			panic("tage: TagBits above 15 leave no room for the valid bit")
		}
		if spec.HistLen < 1 || spec.HistLen > math.MaxUint16 {
			panic("tage: HistLen must be in [1, 65535]")
		}
		t.geom[i] = tableGeom{
			off:     uint64(total),
			mask:    uint64(spec.Entries - 1),
			tagMask: 1<<uint(spec.TagBits) - 1,
		}
		total += spec.Entries
	}
	t.tags = make([]uint16, total)
	t.ents = make([]tagEntry, total)
	if cfg.UseSC {
		t.sc = newStatCorrector(cfg.SCBiasEntries, cfg.SCGEntries)
	}
	if cfg.UseLoop {
		t.loop = newLoopPredictor(cfg.Seed^0x100b, cfg.LoopSets)
	}
	return t
}

// NewHistory allocates per-thread history state matching this predictor's
// geometry.
func (t *Tage) NewHistory() *History { return newHistory(t.cfg.Tables) }

func bitsFor(n int) int {
	b := 0
	for v := n; v > 1; v >>= 1 {
		b++
	}
	return b
}

// SetKeys installs the key vectors XORed into every tagged-table access:
// table ti's index is remapped by index[ti] and its tag by tag[ti]. The
// secure mechanisms supply per-context keys here (HyBP's code-book keys
// for the branch's PC group and its content-key tag bits); nil means the
// identity mapping. A non-nil vector needs at least NumTables entries.
// The predictor reads the vectors on every access without copying them,
// so the caller may refill them in place between accesses.
func (t *Tage) SetKeys(index, tag []uint64) {
	n := len(t.geom)
	if index == nil {
		index = t.noKeys[:n]
	}
	if tag == nil {
		tag = t.noKeys[:n]
	}
	t.idxKeys, t.tagKeys = index[:n], tag[:n]
}

// SetBase swaps the bimodal base predictor (HyBP's per-context physical
// isolation); it returns the previous base.
func (t *Tage) SetBase(b *Bimodal) *Bimodal {
	old := t.base
	t.base = b
	return old
}

// Base returns the current bimodal base.
func (t *Tage) Base() *Bimodal { return t.base }

// Stats returns a copy of the accumulated statistics.
func (t *Tage) Stats() Stats { return t.stats }

// ResetStats zeroes statistics.
func (t *Tage) ResetStats() { t.stats = Stats{} }

// probe computes every tagged table's effective slot and tag for pc under
// history hs into pidx/ptag and returns the hit bitmask: bit ti is set when
// table ti holds a valid entry with that tag. It is one pass with no
// data-dependent exit; the tag compare feeds the mask arithmetically. Table
// ti's index mixes in pc >> (1+ti), kept as a running shift.
func (t *Tage) probe(pc uint64, hs *History) uint64 {
	geom := t.geom
	n := len(geom)
	folds := hs.folds[:n]
	ik, tk := t.idxKeys[:n], t.tagKeys[:n]
	pidx, ptag := t.pidx[:n], t.ptag[:n]
	tags := t.tags
	pcTag := pc >> 1
	pcIdx := pcTag ^ (hs.path & 0x3F)
	pcHist := pcTag
	var hits uint64
	for ti := range geom {
		// The index and tag masks (at most 23 and 15 bits, see New) cut
		// off the lanes above the one each reads, so the lanes need no
		// masking of their own.
		g, p := &geom[ti], folds[ti].packed
		slot := g.off + (pcIdx^pcHist^p^ik[ti])&g.mask
		tag := uint16((pcTag^p>>foldLaneBits^p>>(2*foldLaneBits)<<1^tk[ti])&g.tagMask) | validBit
		pidx[ti] = slot
		ptag[ti] = tag
		// miss is 0 exactly on a hit, so miss-1 has its top bit set then.
		// Hits enter at the top and move down one table per step, so the
		// loop needs no variable shift.
		miss := uint64(tags[slot] ^ tag)
		hits = hits>>1 | (miss-1)&(1<<63)
		pcHist >>= 1
	}
	return hits >> (64 - uint(n))
}

// entry returns table ti's counters at the in-flight access's slot.
func (t *Tage) entry(ti int) *tagEntry { return &t.ents[t.pidx[ti]] }

// lookupResult is the tagged lookup: the provider (longest matching table)
// and the alternate prediction.
type lookupResult struct {
	provider    int // table index, -1 if none
	altPred     bool
	altFromBase bool
	providerNew bool // provider entry looks newly allocated
	tagePred    bool
}

func (t *Tage) lookup(pc uint64, hs *History) lookupResult {
	hits := t.probe(pc, hs)
	res := lookupResult{provider: bits.Len64(hits) - 1}
	if res.provider >= 0 {
		e := t.entry(res.provider)
		res.providerNew = e.u == 0 && weakCtr(e.ctr)
		hits &^= 1 << uint(res.provider)
	}
	if hits != 0 {
		res.altPred = t.entry(bits.Len64(hits)-1).ctr >= 0
	} else {
		res.altPred = t.base.Predict(pc)
		res.altFromBase = true
	}
	res.tagePred = res.altPred
	if res.provider >= 0 && !(res.providerNew && t.useAltOnNA >= 0) {
		res.tagePred = t.entry(res.provider).ctr >= 0
	}
	return res
}

// prediction is the final TAGE-SC-L prediction of one access plus what
// training needs to know about how it was formed.
type prediction struct {
	lookupResult
	pred    bool
	loopHit bool // a confident loop entry supplied pred; SC was skipped
	scUsed  bool // SC was consulted and confident; pred is its vote
}

// predict forms the final prediction without training: a confident loop
// entry overrides TAGE, and otherwise the statistical corrector may
// override a weak provider counter.
func (t *Tage) predict(pc uint64, hs *History) prediction {
	p := prediction{lookupResult: t.lookup(pc, hs)}
	p.pred = p.tagePred
	if t.loop != nil {
		if lp, ok, conf := t.loop.predict(pc); ok && conf {
			p.pred, p.loopHit = lp, true
			return p
		}
	}
	if t.sc != nil && p.provider >= 0 && weakCtr(t.entry(p.provider).ctr) {
		if sp, use := t.sc.predict(pc, hs, p.tagePred); use {
			p.pred, p.scUsed = sp, true
		}
	}
	return p
}

// Predict returns the final TAGE-SC-L prediction for pc without updating
// any state; it equals what Access would return for the same branch.
// Attack harnesses use it to probe; the simulation fast path is Access.
func (t *Tage) Predict(pc uint64, hs *History) bool {
	return t.predict(pc, hs).pred
}

// Access predicts pc, then trains the predictor with the actual outcome,
// returning the prediction. It is the single-pass API the pipeline model
// uses (prediction and resolution are adjacent in a serial simulation).
func (t *Tage) Access(pc uint64, taken bool, hs *History) bool {
	t.stats.Predictions++
	p := t.predict(pc, hs)
	if p.loopHit {
		t.stats.LoopHits++
	}
	if p.scUsed && p.pred != p.tagePred {
		t.stats.SCFlips++
	}
	if p.provider >= 0 {
		t.stats.ProviderHits++
	} else {
		t.stats.BaseHits++
	}
	if p.pred != taken {
		t.stats.Mispredictions++
	}

	t.train(pc, taken, hs, p)
	hs.Update(pc, taken)
	return p.pred
}

func weakCtr(c int8) bool { return c == 0 || c == -1 }

// train applies the TAGE update rules.
func (t *Tage) train(pc uint64, taken bool, hs *History, res prediction) {
	if t.loop != nil {
		t.loop.update(pc, taken, res.tagePred)
	}
	if t.sc != nil && res.scUsed {
		t.sc.update(pc, hs, taken, res.pred)
	}

	if res.provider >= 0 {
		e := t.entry(res.provider)
		provPred := e.ctr >= 0

		// useAltOnNA bookkeeping: learn whether fresh entries beat the
		// alternate prediction.
		if res.providerNew && provPred != res.altPred {
			if provPred == taken {
				if t.useAltOnNA > -8 {
					t.useAltOnNA--
				}
			} else if t.useAltOnNA < 7 {
				t.useAltOnNA++
			}
		}

		// Useful counter: provider proved (un)useful versus the alternate.
		if provPred != res.altPred {
			maxU := uint8(1)<<uint(t.cfg.Tables[res.provider].UBits) - 1
			if provPred == taken {
				if e.u < maxU {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}

		// Train the provider counter.
		e.ctr = satUpdate(e.ctr, taken)

		// Train the base when it supplied the alternate for a fresh entry,
		// keeping the fallback warm.
		if res.altFromBase && res.providerNew {
			t.base.Update(pc, taken)
		}

		if res.tagePred != taken {
			t.allocate(taken, res.provider)
		}
	} else {
		t.base.Update(pc, taken)
		if res.tagePred != taken {
			t.allocate(taken, -1)
		}
	}

	t.tick++
	if t.tick&(1<<18-1) == 0 {
		t.ageUseful()
	}
}

// allocate tries to claim an entry in a table with longer history than the
// provider, per the TAGE allocation rule: pick among u==0 candidates
// (randomized start to avoid ping-pong), and on total failure decay the
// candidates' useful counters. Candidates are the in-flight access's
// (slot, tag) pairs recorded by probe.
func (t *Tage) allocate(taken bool, provider int) {
	n := len(t.geom)
	start := provider + 1
	if start >= n {
		return
	}
	// Random skip of up to 2 tables decorrelates allocation storms.
	start += t.rand.Intn(3)
	if start >= n {
		start = n - 1
	}
	for ti := start; ti < n; ti++ {
		e := t.entry(ti)
		if e.u == 0 {
			t.tags[t.pidx[ti]] = t.ptag[ti]
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			t.stats.Allocations++
			return
		}
	}
	for ti := provider + 1; ti < n; ti++ {
		if e := t.entry(ti); e.u > 0 {
			e.u--
		}
	}
	t.stats.AllocFailures++
}

// ageUseful periodically halves all useful counters so stale providers can
// be reclaimed (the paper's predictor uses periodic u reset; graceful
// halving behaves equivalently at our simulation scales).
func (t *Tage) ageUseful() {
	for i := range t.ents {
		t.ents[i].u >>= 1
	}
}

func satUpdate(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}

// FlushTagged clears the tagged tables (and SC/loop state) but not the
// base predictor; HyBP's key change makes tagged state unreachable while
// the physically isolated base is swapped separately.
func (t *Tage) FlushTagged() {
	clear(t.tags)
	clear(t.ents)
	if t.sc != nil {
		t.sc.flush()
	}
	if t.loop != nil {
		t.loop.flush()
	}
}

// Flush clears all predictor state including the base.
func (t *Tage) Flush() {
	t.FlushTagged()
	t.base.Flush()
	t.useAltOnNA = 0
}

// StorageBits returns the predictor storage cost in bits, excluding the
// swappable base (query the Bimodal separately when accounting for
// replicated bases).
func (t *Tage) StorageBits() int {
	n := 0
	for _, s := range t.cfg.Tables {
		n += s.Entries * s.entryBits()
	}
	if t.sc != nil {
		n += t.sc.storageBits()
	}
	if t.loop != nil {
		n += t.loop.storageBits()
	}
	return n
}

// NumTables returns the number of tagged tables.
func (t *Tage) NumTables() int { return len(t.geom) }

// TableSpecs returns the tagged-table geometry.
func (t *Tage) TableSpecs() []TableSpec { return t.cfg.Tables }
