package secure

import (
	"hybp/internal/btb"
	"hybp/internal/keys"
	"hybp/internal/ras"
	"hybp/internal/tage"
)

// HyBP is the paper's hybrid isolation-randomization mechanism:
//
//   - The small upper-level structures — L0 BTB, L1 BTB, and the bimodal
//     base of TAGE — are physically replicated per (thread, privilege)
//     combination and the swapped-out thread's copies are flushed at
//     context switches (the shaded tables of paper Figure 3).
//   - The large structures — the last-level BTB and TAGE's tagged tables —
//     are shared by all contexts but logically isolated: each context's
//     accesses are remapped through its randomized index keys table (the
//     QARMA-filled code book of internal/keys) and contents are XOR-encoded
//     with the context's content key.
//   - Keys change at context switches and on a BPU-access-count threshold
//     (Sections V-D and VI-C); code-book refills run in the background and
//     never stall the pipeline — racing lookups simply read stale keys.
//
// The physically isolated upper levels also *filter* the information flow
// reaching the shared tables (Section V-B), which is what lets the keys
// live as long as an OS time slice.
type HyBP struct {
	cfg Config
	km  *keys.Manager

	// Shared large structures.
	l2     *btb.Table
	shared *tage.Tage

	// Per-(thread, privilege) private structures and hierarchy wiring,
	// indexed by Context.id() (= thread<<1 | priv, dense in [0, 2*Threads)).
	// A dense slice instead of a map keeps the per-access context fetch a
	// single indexed load — the map hash was measurable on the hot path.
	privPart []*hybpContext

	hist *histories

	now uint64 // current cycle, visible to the BTB key-function closure

	base int // baseline storage for overhead accounting

	// StaleKeyAccesses counts accesses served under a stale key during a
	// code-book refill (Table VI's effect).
	StaleKeyAccesses uint64
}

// hybpContext is the per-(thread, privilege) slice of HyBP state. The
// return address stack joins the physically isolated small structures
// (the paper's Exynos survey notes the RAS as a protected structure;
// HyBP's taxonomy puts small tables on the isolation side).
type hybpContext struct {
	hierarchy *btb.Hierarchy
	l0, l1    *btb.Table
	base      *tage.Bimodal
	stack     *ras.Stack
	keys      *keys.Table

	// Key vectors for the shared tagged tables (tage.Tage.SetKeys): the
	// per-table index keys are refilled from the code book on every
	// conditional access; the tag keys derive from the content key alone,
	// so they are recomputed only when the code-book epoch changes.
	idxKeys, tagKeys []uint64
	tagEpoch         uint64
}

// NewHyBP builds the mechanism.
func NewHyBP(cfg Config) *HyBP {
	cfg = cfg.withDefaults()
	g := cfg.geometryFor()
	h := &HyBP{
		cfg:      cfg,
		km:       keys.NewManager(cfg.Keys),
		l2:       btb.New(g.l2),
		privPart: make([]*hybpContext, cfg.Threads*2),
	}
	tg := g.tage
	tg.Seed = cfg.Seed
	h.shared = tage.New(tg)
	h.hist = newHistories(h.shared, cfg.Threads)

	plain := btb.PlainKeyFunc([]int{g.l0.Sets, g.l1.Sets, g.l2.Sets}, btbTagBits)
	for _, ctx := range cfg.contexts() {
		kt := h.km.Table(ctx.keysID())
		hc := &hybpContext{
			l0:    btb.New(withSeed(g.l0, cfg.Seed^uint64(ctx.id())<<40)),
			l1:    btb.New(withSeed(g.l1, cfg.Seed^uint64(ctx.id())<<41)),
			base:  tage.NewBimodal(g.tage.BimodalEntries),
			stack: ras.New(rasDepth),
			keys:  kt,
		}
		// Levels 0 and 1 are private plain tables; level 2 goes through
		// the context's code book for the index and the content key for
		// the tag.
		hc.hierarchy = btb.NewHierarchy(
			[]*btb.Table{hc.l0, hc.l1, h.l2},
			func(level int, pc uint64) (uint64, uint64) {
				idx, tag := plain(level, pc)
				if level == 2 {
					idx ^= kt.Key(pc, h.now)
					tag ^= kt.ContentKey() & (1<<btbTagBits - 1)
				}
				return idx, tag
			},
		)
		hc.idxKeys = make([]uint64, h.shared.NumTables())
		hc.tagKeys = make([]uint64, h.shared.NumTables())
		h.privPart[ctx.id()] = hc
	}
	h.base = newPredictorSet(g, cfg.Seed).storageBits()
	return h
}

func withSeed(c btb.Config, seed uint64) btb.Config {
	c.Seed = seed
	return c
}

// Access implements BPU.
func (h *HyBP) Access(ctx Context, br Branch, now uint64) Result {
	h.now = now
	hc := h.privPart[ctx.id()]

	// Count the access toward the key-change threshold (speculative and
	// non-speculative accesses both count, Section VI-C). hc.keys is the
	// manager's table for this context, so the counter is bumped directly
	// instead of re-resolving the table by ContextID per access. A
	// threshold refresh only rolls the shared tables' keys; no private
	// flushes are required for security here.
	if hc.keys.NoteAccess() {
		hc.keys.Refresh(now)
	}
	stale := hc.keys.KeyStale(br.PC, now)
	if stale {
		h.StaleKeyAccesses++
	}

	res := Result{BTBLevel: -1, DirCorrect: true, StaleKey: stale}

	if br.Kind == Cond {
		h.shared.SetBase(hc.base)
		hc.tageKeys(br.PC, now)
		h.shared.SetKeys(hc.idxKeys, hc.tagKeys)
		res.DirPred = h.shared.Access(br.PC, br.Taken, h.hist.tage[ctx.Thread])
		res.DirCorrect = res.DirPred == br.Taken
	}

	// Returns are served by the context's physically isolated stack.
	if br.Kind == Return {
		if addr, ok := hc.stack.Pop(); ok {
			res.RawHit = true
			res.PredictedTarget = addr
			res.BTBHit = addr == br.Target
		}
		return res
	}

	if br.Taken {
		contentKey := hc.keys.ContentKey()
		stored, level, hit := hc.hierarchy.Lookup(br.PC)
		if hit {
			res.RawHit = true
			res.BTBLevel = level
			res.BTBLatency = hc.hierarchy.Level(level).Latency()
			res.PredictedTarget = stored ^ contentKey
			if res.PredictedTarget == br.Target {
				res.BTBHit = true
			}
		}
		if !res.BTBHit {
			hc.hierarchy.Insert(br.PC, br.Target^contentKey, ctx.id())
		}
		if br.Kind == Call {
			hc.stack.Push(br.PC + 4)
		}
	}
	return res
}

// tageKeys fills the context's key vectors for a tagged-table access by pc
// at cycle now. The TAGE tables draw their index and tag randomization from
// the same code book and content key as the L2 BTB (BTB and PHT share the
// random tables, Section VI-C): table ti uses the code-book key of PC group
// pc+ti<<1 and the content key shifted by ti%32, which decorrelates the
// thirty tables.
func (hc *hybpContext) tageKeys(pc, now uint64) {
	hc.keys.KeyRun(hc.idxKeys, pc, now)
	if e := hc.keys.Epoch(); e != hc.tagEpoch {
		ck := hc.keys.ContentKey()
		for ti := range hc.tagKeys {
			hc.tagKeys[ti] = (ck >> (uint(ti) % 32)) & 0x7FF
		}
		hc.tagEpoch = e
	}
}

// OnContextSwitch implements BPU: the incoming software context gets fresh
// keys for both privilege levels of the thread (making the outgoing
// context's shared-table state unreachable), and the thread's private
// upper-level tables are flushed.
func (h *HyBP) OnContextSwitch(thread uint8, incoming uint16, now uint64) {
	h.now = now
	h.km.OnContextSwitch(thread, incoming, 0, now)
	for priv := keys.User; priv <= keys.Kernel; priv++ {
		hc := h.privPart[Context{Thread: thread, Priv: priv}.id()]
		hc.l0.Flush()
		hc.l1.Flush()
		hc.base.Flush()
		hc.stack.Flush()
	}
	h.hist.reset(thread)
}

// OnPrivilegeChange implements BPU: nothing to do — each privilege level
// owns separate keys and separate private tables, which is exactly HyBP's
// advantage over Flush on privilege-change-heavy execution.
func (h *HyBP) OnPrivilegeChange(thread uint8, from, to keys.Privilege, now uint64) {}

// StorageBits implements BPU: shared L2 + shared tagged tables + per-
// context private copies + code books. (The QARMA engine's area is added
// by the Section VII-D cost report, which is about area rather than SRAM
// bits.)
func (h *HyBP) StorageBits() int {
	n := h.l2.StorageBits() + h.shared.StorageBits()
	for _, hc := range h.privPart {
		n += hc.l0.StorageBits() + hc.l1.StorageBits() + hc.base.StorageBits() + hc.keys.StorageBits()
	}
	return n
}

// BaselineBits implements BPU.
func (h *HyBP) BaselineBits() int { return h.base }

// Name implements BPU.
func (h *HyBP) Name() string { return "hybp" }

// KeysManager exposes key-management internals for tests and experiments.
func (h *HyBP) KeysManager() *keys.Manager { return h.km }

// SharedL2 exposes the shared last-level BTB for information-flow
// statistics and attack harnesses.
func (h *HyBP) SharedL2() *btb.Table { return h.l2 }

// HierarchyFor exposes a context's BTB hierarchy (attack harnesses need the
// attacker's own view of the shared table).
func (h *HyBP) HierarchyFor(ctx Context) *btb.Hierarchy {
	return h.privPart[ctx.id()].hierarchy
}

var _ BPU = (*HyBP)(nil)
