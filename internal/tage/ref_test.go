package tage

import (
	"fmt"
	"testing"

	"hybp/internal/rng"
)

// refTage is the reference predictor for the differential test: the TAGE
// probe as it was before the single-pass rewrite. It scans the tagged
// tables longest-history first and stops at the alternate, recomputes each
// table's (index, tag) in lookup, allocate and the u-decay loop, keeps tags
// inside array-of-structs entries, and applies keys through a closure. Its
// SC, loop and base components are the production ones; only the tagged
// part is re-implemented.
type refTage struct {
	cfg      Config
	tables   [][]refEntry
	masks    []uint64
	tagMasks []uint64
	base     *Bimodal
	xform    func(table int, pc, idx, tag uint64) (uint64, uint64)

	useAltOnNA int8
	tick       uint64

	sc   *statCorrector
	loop *loopPredictor
	rand *rng.Rand

	stats Stats
}

type refEntry struct {
	tag   uint16
	ctr   int8
	u     uint8
	valid bool
}

type refLookup struct {
	provider    int
	providerIdx uint64
	altPred     bool
	altFromBase bool
	providerNew bool
	tagePred    bool
}

func newRefTage(cfg Config) *refTage {
	r := &refTage{
		cfg:      cfg,
		tables:   make([][]refEntry, len(cfg.Tables)),
		masks:    make([]uint64, len(cfg.Tables)),
		tagMasks: make([]uint64, len(cfg.Tables)),
		base:     NewBimodal(cfg.BimodalEntries),
		rand:     rng.New(cfg.Seed ^ 0x7a6e),
	}
	for i, spec := range cfg.Tables {
		r.tables[i] = make([]refEntry, spec.Entries)
		r.masks[i] = uint64(spec.Entries - 1)
		r.tagMasks[i] = 1<<uint(spec.TagBits) - 1
	}
	if cfg.UseSC {
		r.sc = newStatCorrector(cfg.SCBiasEntries, cfg.SCGEntries)
	}
	if cfg.UseLoop {
		r.loop = newLoopPredictor(cfg.Seed^0x100b, cfg.LoopSets)
	}
	return r
}

func (r *refTage) index(ti int, pc uint64, hs *History) (uint64, uint64) {
	f := &hs.folds[ti]
	idx := (pc >> 1) ^ (pc >> uint(1+ti)) ^ f.idxComp() ^ (hs.path & 0x3F)
	idx &= r.masks[ti]
	tag := ((pc >> 1) ^ f.tag0Comp() ^ (f.tag1Comp() << 1)) & r.tagMasks[ti]
	if r.xform != nil {
		idx, tag = r.xform(ti, pc, idx, tag)
		idx &= r.masks[ti]
		tag &= r.tagMasks[ti]
	}
	return idx, tag
}

func (r *refTage) lookup(pc uint64, hs *History) refLookup {
	res := refLookup{provider: -1}
	altSet := false
	for ti := len(r.tables) - 1; ti >= 0; ti-- {
		idx, tag := r.index(ti, pc, hs)
		e := &r.tables[ti][idx]
		if e.valid && e.tag == uint16(tag) {
			if res.provider == -1 {
				res.provider = ti
				res.providerIdx = idx
				res.providerNew = e.u == 0 && (e.ctr == 0 || e.ctr == -1)
			} else if !altSet {
				res.altPred = e.ctr >= 0
				altSet = true
			}
		}
		if res.provider != -1 && altSet {
			break
		}
	}
	if !altSet {
		res.altPred = r.base.Predict(pc)
		res.altFromBase = true
	}
	if res.provider >= 0 {
		e := &r.tables[res.provider][res.providerIdx]
		pred := e.ctr >= 0
		if res.providerNew && r.useAltOnNA >= 0 {
			pred = res.altPred
		}
		res.tagePred = pred
	} else {
		res.tagePred = res.altPred
	}
	return res
}

func (r *refTage) Access(pc uint64, taken bool, hs *History) bool {
	r.stats.Predictions++
	res := r.lookup(pc, hs)
	pred := res.tagePred
	finalIsLoop := false
	if r.loop != nil {
		if lp, ok, conf := r.loop.predict(pc); ok && conf {
			pred = lp
			finalIsLoop = true
			r.stats.LoopHits++
		}
	}
	scUsed := false
	scPred := pred
	if r.sc != nil && res.provider >= 0 && !finalIsLoop {
		e := &r.tables[res.provider][res.providerIdx]
		if weakCtr(e.ctr) {
			if sp, use := r.sc.predict(pc, hs, res.tagePred); use {
				scPred = sp
				scUsed = true
				if sp != pred {
					r.stats.SCFlips++
					pred = sp
				}
			}
		}
	}
	if res.provider >= 0 {
		r.stats.ProviderHits++
	} else {
		r.stats.BaseHits++
	}
	if pred != taken {
		r.stats.Mispredictions++
	}
	r.train(pc, taken, hs, res, scUsed, scPred)
	hs.Update(pc, taken)
	return pred
}

func (r *refTage) train(pc uint64, taken bool, hs *History, res refLookup, scUsed, scPred bool) {
	if r.loop != nil {
		r.loop.update(pc, taken, res.tagePred)
	}
	if r.sc != nil && scUsed {
		r.sc.update(pc, hs, taken, scPred)
	}
	if res.provider >= 0 {
		e := &r.tables[res.provider][res.providerIdx]
		provPred := e.ctr >= 0
		if res.providerNew && provPred != res.altPred {
			if provPred == taken {
				if r.useAltOnNA > -8 {
					r.useAltOnNA--
				}
			} else if r.useAltOnNA < 7 {
				r.useAltOnNA++
			}
		}
		if provPred != res.altPred {
			maxU := uint8(1)<<uint(r.cfg.Tables[res.provider].UBits) - 1
			if provPred == taken {
				if e.u < maxU {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		e.ctr = satUpdate(e.ctr, taken)
		if res.altFromBase && res.providerNew {
			r.base.Update(pc, taken)
		}
		if res.tagePred != taken {
			r.allocate(pc, taken, hs, res.provider)
		}
	} else {
		r.base.Update(pc, taken)
		if res.tagePred != taken {
			r.allocate(pc, taken, hs, -1)
		}
	}
	r.tick++
	if r.tick&(1<<18-1) == 0 {
		for ti := range r.tables {
			for i := range r.tables[ti] {
				r.tables[ti][i].u >>= 1
			}
		}
	}
}

func (r *refTage) allocate(pc uint64, taken bool, hs *History, provider int) {
	start := provider + 1
	if start >= len(r.tables) {
		return
	}
	start += r.rand.Intn(3)
	if start >= len(r.tables) {
		start = len(r.tables) - 1
	}
	for ti := start; ti < len(r.tables); ti++ {
		idx, tag := r.index(ti, pc, hs)
		e := &r.tables[ti][idx]
		if e.u == 0 {
			e.tag = uint16(tag)
			e.valid = true
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			r.stats.Allocations++
			return
		}
	}
	for ti := provider + 1; ti < len(r.tables); ti++ {
		idx, _ := r.index(ti, pc, hs)
		e := &r.tables[ti][idx]
		if e.u > 0 {
			e.u--
		}
	}
	r.stats.AllocFailures++
}

func (r *refTage) FlushTagged() {
	for ti := range r.tables {
		clear(r.tables[ti])
	}
	if r.sc != nil {
		r.sc.flush()
	}
	if r.loop != nil {
		r.loop.flush()
	}
}

// diffEntry compares table ti, slot i of the two predictors; i is the slot
// within the table, not within the shared slab.
func diffEntry(t *Tage, r *refTage, ti int, i uint64) error {
	re := r.tables[ti][i]
	want := uint16(0)
	if re.valid {
		want = re.tag | validBit
	}
	at := t.geom[ti].off + i
	if got, e := t.tags[at], t.ents[at]; got != want || e.ctr != re.ctr || e.u != re.u {
		return fmt.Errorf("table %d slot %d: tag %#x ctr %d u %d, reference tag %#x ctr %d u %d",
			ti, i, got, e.ctr, e.u, want, re.ctr, re.u)
	}
	return nil
}

func diffTables(t *Tage, r *refTage) error {
	for ti, rt := range r.tables {
		off := t.geom[ti].off
		tags, ents := t.tags[off:off+uint64(len(rt))], t.ents[off:off+uint64(len(rt))]
		for i, re := range rt {
			want := uint16(0)
			if re.valid {
				want = re.tag | validBit
			}
			if tags[i] != want || ents[i].ctr != re.ctr || ents[i].u != re.u {
				return diffEntry(t, r, ti, uint64(i))
			}
		}
	}
	return nil
}

// diffStream is a seeded, program-shaped branch stream: it runs loops
// whose bodies mix biased, random, and history-correlated branches, and
// whose back-edges have fixed trip counts (so the loop predictor becomes
// confident). The bodies together are larger than the small tables, so
// allocation failures and u-decay are frequent.
type diffStream struct {
	r     *rng.Rand
	loops []diffLoop
	queue []diffBranch
	last  uint64 // recent outcomes, newest in bit 0
}

type diffLoop struct {
	body  []uint64 // branch PCs; the last is the back-edge
	kinds []uint8  // per body branch: 0 biased, 1 random, 2 correlated
	trip  int
}

type diffBranch struct {
	pc   uint64
	kind uint8 // 0 biased, 1 random, 2 correlated, 3 back-edge taken, 4 back-edge exit
}

func newDiffStream(seed uint64, nLoops int, randomPct uint64) *diffStream {
	s := &diffStream{r: rng.New(seed)}
	pc := uint64(0x40_0000)
	for l := 0; l < nLoops; l++ {
		var lp diffLoop
		n := 2 + int(s.r.Uint64()%10)
		for i := 0; i < n; i++ {
			pc += 8 + s.r.Uint64()%16*2
			lp.body = append(lp.body, pc)
			k := uint8(2)
			switch v := s.r.Uint64() % 100; {
			case v < randomPct:
				k = 1
			case v < 50:
				k = 0
			}
			lp.kinds = append(lp.kinds, k)
		}
		lp.trip = 2 + int(s.r.Uint64()%24)
		s.loops = append(s.loops, lp)
	}
	return s
}

func (s *diffStream) next() (uint64, bool) {
	if len(s.queue) == 0 {
		lp := &s.loops[s.r.Uint64()%uint64(len(s.loops))]
		for it := 1; it <= lp.trip; it++ {
			last := len(lp.body) - 1
			for i, pc := range lp.body[:last] {
				s.queue = append(s.queue, diffBranch{pc, lp.kinds[i]})
			}
			k := uint8(3)
			if it == lp.trip {
				k = 4
			}
			s.queue = append(s.queue, diffBranch{lp.body[last], k})
		}
	}
	b := s.queue[0]
	s.queue = s.queue[1:]
	var taken bool
	switch b.kind {
	case 0:
		taken = s.r.Uint64()%100 < 90
	case 1:
		taken = s.r.Uint64()&1 == 0
	case 2:
		taken = (s.last^s.last>>2^b.pc>>3)&1 == 0
	case 3:
		taken = true
	}
	s.last = s.last<<1 | uint64(b2u(taken))
	return b.pc, taken
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// TestSinglePassMatchesReference runs the single-pass probe and the
// reference early-exit scan in lockstep and requires identical
// predictions, Stats, and tagged-table contents after every step, with
// and without keys, on the small geometry (where allocations fail and
// useful counters decay and age) and the paper's.
func TestSinglePassMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		keyed bool
		steps int
		full  int // full-table compare period; probed slots are compared every step
	}{
		{"small/identity", SmallConfig(3), false, 270_000, 1},
		{"small/keyed", SmallConfig(4), true, 270_000, 1},
		{"default/identity", DefaultConfig(5), false, 100_000, 2048},
		{"default/keyed", DefaultConfig(6), true, 100_000, 2048},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tg, ref := New(tc.cfg), newRefTage(tc.cfg)
			hs, refHS := tg.NewHistory(), tg.NewHistory()
			n := tg.NumTables()
			idxKeys, tagKeys := make([]uint64, n), make([]uint64, n)
			var epoch uint64
			if tc.keyed {
				tg.SetKeys(idxKeys, tagKeys)
				ref.xform = func(ti int, pc, idx, tag uint64) (uint64, uint64) {
					return idx ^ rng.Mix64(pc+uint64(ti)<<1^epoch), tag ^ (rng.Mix64(^epoch)>>(uint(ti)%32))&0x7FF
				}
			}
			s := newDiffStream(tc.cfg.Seed, 120, 15)
			for step := 0; step < tc.steps; step++ {
				if step > 0 && step%40_000 == 0 {
					// A key change with its flush, as HyBP's switch does.
					epoch++
					tg.FlushTagged()
					ref.FlushTagged()
				}
				pc, taken := s.next()
				if tc.keyed {
					for ti := range idxKeys {
						idxKeys[ti] = rng.Mix64(pc + uint64(ti)<<1 ^ epoch)
						tagKeys[ti] = (rng.Mix64(^epoch) >> (uint(ti) % 32)) & 0x7FF
					}
				}
				got, want := tg.Access(pc, taken, hs), ref.Access(pc, taken, refHS)
				if got != want {
					t.Fatalf("step %d: prediction %v, reference %v", step, got, want)
				}
				if tg.Stats() != ref.stats {
					t.Fatalf("step %d: stats %+v, reference %+v", step, tg.Stats(), ref.stats)
				}
				if step%tc.full == 0 || step == tc.steps-1 {
					if err := diffTables(tg, ref); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					continue
				}
				for ti := 0; ti < n; ti++ {
					if err := diffEntry(tg, ref, ti, tg.pidx[ti]-tg.geom[ti].off); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			st := tg.Stats()
			if st.ProviderHits == 0 || st.Allocations == 0 || st.LoopHits == 0 || st.SCFlips == 0 {
				t.Fatalf("stream left paths unexercised: %+v", st)
			}
			if tc.cfg.Tables[0].Entries == 256 && (st.AllocFailures == 0 || tg.tick < 1<<18) {
				t.Fatalf("small geometry: want allocation failures and a u-aging pass, got %+v after %d ticks", st, tg.tick)
			}
		})
	}
}

// TestPredictMatchesAccess checks that Predict returns what the following
// Access returns, on a loop-heavy stream where a confident loop entry often
// meets a weak provider counter (the case where SC must not override).
func TestPredictMatchesAccess(t *testing.T) {
	tg := New(SmallConfig(8))
	hs := tg.NewHistory()
	s := newDiffStream(8, 40, 10)
	loopOverWeak := 0
	for step := 0; step < 100_000; step++ {
		pc, taken := s.next()
		p := tg.predict(pc, hs)
		if p.loopHit && p.provider >= 0 && weakCtr(tg.entry(p.provider).ctr) {
			loopOverWeak++
		}
		want := tg.Predict(pc, hs)
		if got := tg.Access(pc, taken, hs); got != want {
			t.Fatalf("step %d: Predict %v, Access %v", step, want, got)
		}
	}
	if loopOverWeak == 0 {
		t.Fatal("stream never met a confident loop entry over a weak provider")
	}
}
