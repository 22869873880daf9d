package c6x

import (
	"fmt"
	"slices"
	"sort"
)

// This file is the superblock (fused) execution engine: a region-graph
// compiler that traces the translated program across execute packets —
// and across cycle-region boundaries — folding the per-packet epilogue
// (cycle accounting, stats, writeback commit scans, branch-delay
// bookkeeping) into straight-line chains of closures with the constant
// parts pre-added at fuse time. Where the compiled engine (compile.go)
// pays a dispatch and a commit scan per packet, the fused engine pays
// one constant-folded accounting closure per segment and dispatches
// only at control-flow splits, so steady-state loops never return to
// the caller's region dispatcher.
//
// The fuser is a tiny abstract interpreter over the scheduler's
// machine-state contract: it tracks the branch-delay counter, the
// in-flight writeback window and (for the registers in
// FuseConfig.ConstRegs) MVK/MVKH-built constants symbolically, forking
// compiled segments at predicated branches and chaining them at
// resolved ones. An unpredicated indirect branch through a register
// with no known constant (a return through a link register reloaded
// from the stack) captures its target at issue and dispatches at run
// time where it fires: a per-site table of continuations, one per
// packet index the program MVKs into that register, keeps the in-flight
// window symbolic; a miss chains to the target's clean entry or
// materializes the state there (see termIndirect). Anything outside the
// contract — a read of an in-flight register, a predicated indirect
// branch without a known target, an op with no kernel, overlapping
// branches — ends the segment with a deoptimization exit that
// materializes the exact interpreter state (pc, pending writebacks,
// branch state, clocks, stats) and hands control back to the generic
// engines, which reproduce the oracle behavior including its error
// texts. Bit-identity with Step is the invariant every
// fusing rule below preserves; the differential tests in fuse_test.go
// and the platform matrix enforce it.
//
// Known, deliberate inexactness: when a memory op faults mid-segment
// the error value (packet, cycle, text) is exact, but the statistics
// counters lag by the packets folded since the last synchronization
// point. Errors are terminal, so no caller observes the difference.

const (
	// fuseMaxSlots bounds the in-flight writeback values a segment can
	// hold in the Sim's fixed slot array (the deepest translator output
	// keeps a handful in flight; overflow deoptimizes).
	fuseMaxSlots = 16
	// fuseMaxSegPackets bounds one segment's trace length; longer
	// straight-line runs chain through a continuation segment.
	fuseMaxSegPackets = 64
	// fuseDefaultMaxSegments bounds the total compiled segments
	// (distinct packet × machine-state pairs) before Fuse gives up.
	fuseDefaultMaxSegments = 16384
	// fuseMaxIndirectTargets bounds the candidate targets of one
	// run-time-target branch register; a register loaded with more
	// distinct packet indices gets an empty table (every firing misses).
	fuseMaxIndirectTargets = 8
)

// fnext sentinels: the segment's terminal left fused execution.
const (
	// fnextExit: the state is materialized mid-region; the generic
	// engine continues from it.
	fnextExit int32 = -1
	// fnextLanded: the state is materialized at a region start the
	// trace branched to at run time; StepFused performs the boundary
	// actions the generic loop performs after its landing step.
	fnextLanded int32 = -2
)

// FuseConfig parameterizes superblock compilation.
type FuseConfig struct {
	// RegionOf maps each packet index to the cycle region starting
	// there (-1 elsewhere). Region starts are the segment boundaries
	// where the runner's hook fires (interrupt delivery points, trace,
	// clock checks) and the only re-entry points after a deopt.
	RegionOf []int32
	// ConstRegs are registers whose MVK/MVKH-built values the fuser
	// tracks symbolically to resolve indirect branches (the translator's
	// link register and the source return-address register).
	ConstRegs []Reg
	// MaxSegments overrides fuseDefaultMaxSegments when positive.
	MaxSegments int
}

// fop is one compiled fused operation.
type fop func(s *Sim) error

// finflight is one in-flight writeback tracked symbolically: its value
// lives in fslotVal[slot] at run time, landing rel busy-cycles after
// the segment boundary it is relative to. pred marks a predicated
// producer whose execution is recorded in fslotOn[slot].
type finflight struct {
	reg  Reg
	rel  int64
	slot uint8
	pred bool
}

// fbr is the symbolic branch-delay state. A run-time-target branch (rt)
// holds its target in Sim.fbrTgt, captured at issue from reg.
type fbr struct {
	valid bool
	rt    bool
	reg   Reg
	tgt   int
	cnt   int
}

// restore materializes a pending branch into the interpreter state.
func (br fbr) restore(s *Sim) {
	if !br.valid {
		return
	}
	tgt := br.tgt
	if br.rt {
		tgt = s.fbrTgt
	}
	s.brValid, s.brTgt, s.brCnt = true, tgt, br.cnt
}

// ffact is a known register constant (MVK/MVKH tracking).
type ffact struct {
	reg Reg
	val uint32
}

// fstate is the symbolic machine state keying a segment: the packet the
// trace continues at, the branch-delay state, the in-flight writeback
// window (rel relative to the state's busy clock) and the known
// constants. Two traces reaching one packet in the same state share a
// segment.
type fstate struct {
	pkt      int
	br       fbr
	inflight []finflight
	facts    []ffact
}

func (st *fstate) key() string {
	b := make([]byte, 0, 12+10*len(st.inflight)+5*len(st.facts))
	put := func(v uint32) {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	put(uint32(st.pkt))
	switch {
	case st.br.rt:
		b = append(b, 2, byte(st.br.reg))
		put(uint32(st.br.cnt))
	case st.br.valid:
		b = append(b, 1)
		put(uint32(st.br.tgt))
		put(uint32(st.br.cnt))
	default:
		b = append(b, 0)
	}
	b = append(b, byte(len(st.inflight)))
	for _, fi := range st.inflight {
		flag := byte(0)
		if fi.pred {
			flag = 1
		}
		b = append(b, byte(fi.reg), fi.slot, flag)
		put(uint32(fi.rel))
	}
	for _, fa := range st.facts {
		b = append(b, byte(fa.reg))
		put(fa.val)
	}
	return string(b)
}

// fseg is one compiled segment.
type fseg struct {
	// pkt is the packet the segment's state sits at (pc at its boundary).
	// An int32 beside the two flags keeps the struct in the 80-byte size
	// class: fused programs are cached for the process lifetime.
	pkt      int32
	boundary bool // sits at a region start: the runner hook fires here
	noEnter  bool // zero-progress (deopts immediately): not a re-entry point
	entryBr  fbr
	// entryFlush is the in-flight window at segment entry, flushed into
	// Sim.pending when the hook stops or redirects execution here, and
	// loaded back from it when fused execution resumes here.
	entryFlush []finflight
	ops        []fop
}

// FusedProgram is the superblock-compiled form of a Program. Immutable
// after Fuse and safe to share across Sims (closures only touch the Sim
// passed to them).
type FusedProgram struct {
	prog *Program
	segs []*fseg
	// entry maps a packet index to its clean-state re-entry segment, or
	// -1. A dense slice rather than a map: entry dispatch runs once per
	// region boundary on the hot path, and a bounds-checked load beats a
	// hash lookup there.
	entry   []int32
	entries int
	// resume indexes, sorted by packet, the boundary segments fused
	// execution can re-enter with writebacks still in flight (a hook stop
	// materialized them into Sim.pending), each with the constants it was
	// compiled under. Sparse: only region starts some trace crosses with
	// a non-empty window appear.
	resume []fresume
}

// fresume is one in-flight re-entry point: segment seg at packet pkt,
// valid while the register file holds facts.
type fresume struct {
	pkt   int32
	seg   int32
	facts []ffact
}

// Segments returns the number of compiled segments (introspection).
func (fp *FusedProgram) Segments() int { return len(fp.segs) }

// Entries returns the number of clean re-entry points.
func (fp *FusedProgram) Entries() int { return fp.entries }

// entryAt returns the re-entry segment for packet pc, or -1.
func (fp *FusedProgram) entryAt(pc int) int32 {
	if pc < 0 || pc >= len(fp.entry) {
		return -1
	}
	return fp.entry[pc]
}

// fuser is the segment compiler.
type fuser struct {
	prog    *Program
	cfg     FuseConfig
	maxSegs int
	segs    []*fseg
	states  []fstate
	index   map[string]int32
	work    []int32
	opBuf   []fop         // reused build buffer of a segment's ops
	seeds   map[int]int32 // seed packet -> segment index
	targets map[Reg][]int // run-time-target branch candidates per register
}

// Fuse compiles prog into superblock segments. Programs with malformed
// packets are rejected (like Compile); a program whose control flow
// explodes the segment budget returns an error, and the caller runs
// unfused.
func Fuse(prog *Program, cfg FuseConfig) (*FusedProgram, error) {
	for i, pk := range prog.Packets {
		if msg := issueViolation(pk); msg != "" {
			return nil, &SimError{Packet: i, Msg: msg}
		}
	}
	f := &fuser{
		prog:    prog,
		cfg:     cfg,
		maxSegs: cfg.MaxSegments,
		index:   map[string]int32{},
		seeds:   map[int]int32{},
		targets: map[Reg][]int{},
	}
	if f.maxSegs <= 0 {
		f.maxSegs = fuseDefaultMaxSegments
	}
	// Seeds: the program entry and every region start, in clean state.
	f.seeds[prog.Entry] = f.state(fstate{pkt: prog.Entry})
	for pkt, ri := range cfg.RegionOf {
		if ri >= 0 {
			if _, ok := f.seeds[pkt]; !ok {
				f.seeds[pkt] = f.state(fstate{pkt: pkt})
			}
		}
	}
	for len(f.work) > 0 {
		if len(f.segs) > f.maxSegs {
			return nil, fmt.Errorf("c6x: fuse: segment budget exceeded (%d)", f.maxSegs)
		}
		si := f.work[len(f.work)-1]
		f.work = f.work[:len(f.work)-1]
		f.compileSeg(si)
	}
	// +1: a program whose entry sits just past the last packet still
	// seeds a (deopting) segment there.
	fp := &FusedProgram{prog: prog, segs: f.segs, entry: make([]int32, len(prog.Packets)+1)}
	for i := range fp.entry {
		fp.entry[i] = -1
	}
	for pkt, si := range f.seeds {
		if !f.segs[si].noEnter && pkt >= 0 && pkt < len(fp.entry) {
			fp.entry[pkt] = si
			fp.entries++
		}
	}
	for si, seg := range f.segs {
		if seg.boundary && len(seg.entryFlush) > 0 && !seg.entryBr.valid && !seg.noEnter {
			fp.resume = append(fp.resume, fresume{pkt: seg.pkt, seg: int32(si), facts: f.states[si].facts})
		}
	}
	sort.SliceStable(fp.resume, func(i, j int) bool { return fp.resume[i].pkt < fp.resume[j].pkt })
	return fp, nil
}

// resumeAt returns the segment that continues s at its pc with s.pending
// in flight: an indexed boundary segment whose entry window materializes
// to exactly s.pending and whose constants hold in the register file. -1
// if none.
func (fp *FusedProgram) resumeAt(s *Sim) int32 {
	pc := int32(s.pc)
	i := sort.Search(len(fp.resume), func(i int) bool { return fp.resume[i].pkt >= pc })
	for ; i < len(fp.resume) && fp.resume[i].pkt == pc; i++ {
		r := &fp.resume[i]
		if factsHold(s, r.facts) && s.matchWindow(fp.segs[r.seg].entryFlush, false) {
			return r.seg
		}
	}
	return -1
}

// factsHold reports whether every tracked constant holds in s.Regs. A
// segment compiled under a constant resolves indirect branches through
// it statically; entering it while the register holds another value
// would branch to the wrong place.
func factsHold(s *Sim, facts []ffact) bool {
	for _, fa := range facts {
		if s.Regs[fa.reg] != fa.val {
			return false
		}
	}
	return true
}

// matchWindow reports whether s.pending is exactly what materialize(fl)
// produces at the current busy clock: the same registers landing at the
// same cycles in the same order, a predicated entry present or absent.
// With load set it also moves the values into the fused slots (a
// predicated entry's presence into fslotOn) and empties s.pending.
func (s *Sim) matchWindow(fl []finflight, load bool) bool {
	j := 0
	for _, fi := range fl {
		on := j < len(s.pending) && s.pending[j].reg == fi.reg && s.pending[j].commitAt-s.busy == fi.rel
		if !on && !fi.pred {
			return false
		}
		if load {
			if fi.pred {
				s.fslotOn[fi.slot] = on
			}
			if on {
				s.fslotVal[fi.slot] = s.pending[j].val
			}
		}
		if on {
			j++
		}
	}
	if j != len(s.pending) {
		return false
	}
	if load {
		s.pending = s.pending[:0]
	}
	return true
}

// state interns a symbolic state, scheduling compilation on first use.
func (f *fuser) state(st fstate) int32 {
	k := st.key()
	if si, ok := f.index[k]; ok {
		return si
	}
	si := int32(len(f.segs))
	f.index[k] = si
	f.segs = append(f.segs, &fseg{})
	f.states = append(f.states, st)
	f.work = append(f.work, si)
	return si
}

func (f *fuser) regionAt(pkt int) int32 {
	if pkt >= 0 && pkt < len(f.cfg.RegionOf) {
		return f.cfg.RegionOf[pkt]
	}
	return -1
}

// fctx is the per-segment compilation context: the working symbolic
// state plus the accumulators the next synchronization op will fold
// into the Sim.
type fctx struct {
	f   *fuser
	seg *fseg

	busy     int64 // busy offset since segment entry
	br       fbr
	inflight []finflight
	facts    []ffact
	slots    uint32 // bitmask of live slots

	accCyc, accPkts, accInsts, accNop int64
	memSeen                           bool // a mem op ran since the last sync (fstall may be pending)
	progress                          bool
}

// compileSeg compiles the segment for state index si.
func (f *fuser) compileSeg(si int32) {
	st := f.states[si]
	seg := f.segs[si]
	seg.pkt = int32(st.pkt)
	seg.entryBr = st.br
	seg.entryFlush = append([]finflight(nil), st.inflight...)
	seg.boundary = f.regionAt(st.pkt) >= 0
	seg.ops = f.opBuf[:0]

	c := &fctx{
		f:        f,
		seg:      seg,
		br:       st.br,
		inflight: append([]finflight(nil), st.inflight...),
		facts:    append([]ffact(nil), st.facts...),
	}
	for _, fi := range st.inflight {
		c.slots |= 1 << fi.slot
	}

	pkt := st.pkt
	pkts := 0
	for {
		if pkt < 0 || pkt >= len(f.prog.Packets) {
			// Out of range: deopt; the generic engine produces the exact
			// "fell off the program" error.
			c.exitDeopt(pkt)
			break
		}
		if pkt != st.pkt && f.regionAt(pkt) >= 0 {
			// Region boundary: end the segment so the runner hook fires.
			c.termJump(c.stateAt(pkt))
			break
		}
		if pkts >= fuseMaxSegPackets {
			c.termJump(c.stateAt(pkt))
			break
		}
		pl, ok := c.plan(pkt, f.prog.Packets[pkt])
		if !ok {
			c.exitDeopt(pkt)
			break
		}
		pkts++
		c.emit(pkt, pl)
		c.progress = true
		if done := c.terminal(pkt, pl); done {
			break
		}
		pkt = pl.next
	}
	seg.noEnter = !c.progress
	// The ops were built in the reused buffer; keep an exact-size copy.
	// Fused programs are cached for the process lifetime, so growth
	// slack would be retained with them.
	f.opBuf = seg.ops[:0]
	seg.ops = slices.Clone(seg.ops)
}

// stateAt interns the continuation state at pkt with the current
// symbolic machine state (rels rebased to the new segment's entry).
func (c *fctx) stateAt(pkt int) int32 {
	st := fstate{pkt: pkt, br: c.br}
	for _, fi := range c.inflight {
		fi.rel -= c.busy
		st.inflight = append(st.inflight, fi)
	}
	st.facts = append(st.facts, c.facts...)
	return c.f.state(st)
}

// fwrite is one planned register write of a packet.
type fwrite struct {
	inst      int // index into the packet's insts
	reg       Reg
	commitOff int64
	direct    bool
	slot      uint8
	pred      bool
}

// fplan is the static execution plan of one packet.
type fplan struct {
	hasMem  bool
	busyPk  int64
	busyEff int64
	nop     int64
	uncond  int64 // unpredicated executed instructions (folded count)

	writes []fwrite
	due    []finflight // commits landing at this packet's end, in order
	keep   []finflight // still in flight afterwards

	condBr    bool // predicated branch issued (fork at terminal)
	brTgt     int  // static branch target if a branch issues
	brRT      bool // the issued branch's target is read at run time from brReg
	brReg     Reg
	halt      bool // unpredicated HALT
	haltCond  bool // predicated HALT
	fired     bool // unpredicated branch fires at this packet's end
	firedBr   fbr  // the branch that fires
	brAfter   fbr  // branch state after this packet (not-taken path for condBr)
	brTaken   fbr  // branch state after this packet on the taken path (condBr)
	killFacts []Reg
	setFact   *ffact
	next      int // fallthrough packet
}

// readsOf appends the registers inst reads at issue (the strict
// in-flight contract set: predicate registers unconditionally, operand
// registers per the interpreter's Step switch).
func readsOf(in Inst, dst []Reg) []Reg {
	if in.Pred.Valid {
		dst = append(dst, in.Pred.Reg)
	}
	switch {
	case in.Op == NOP, in.Op == HALT, in.Op == BPKT:
	case in.Op == BREG:
		if !in.Src1.IsImm {
			dst = append(dst, in.Src1.Reg)
		}
	case in.Op.IsLoad():
		if !in.Src1.IsImm {
			dst = append(dst, in.Src1.Reg)
		}
	case in.Op.IsStore():
		if !in.Src1.IsImm {
			dst = append(dst, in.Src1.Reg)
		}
		dst = append(dst, in.Data)
	default:
		if in.Op.ReadsSrc1() && !in.Src1.IsImm {
			dst = append(dst, in.Src1.Reg)
		}
		if in.Op.ReadsSrc2() && !in.Src2.IsImm {
			dst = append(dst, in.Src2.Reg)
		}
		if in.Op == MVKH {
			dst = append(dst, in.Dst)
		}
	}
	return dst
}

// fact returns the tracked constant of r, if known.
func (c *fctx) fact(r Reg) (uint32, bool) {
	for _, fa := range c.facts {
		if fa.reg == r {
			return fa.val, true
		}
	}
	return 0, false
}

func (c *fctx) tracked(r Reg) bool {
	for _, tr := range c.f.cfg.ConstRegs {
		if tr == r {
			return true
		}
	}
	return false
}

// plan statically simulates one packet against the symbolic state. A
// false result means the packet (in this state) is outside the fusable
// contract and the segment must deoptimize before it.
func (c *fctx) plan(pkt int, pk Packet) (fplan, bool) {
	var pl fplan
	pl.next = pkt + 1
	pl.busyPk = int64(pk.Cycles())
	if n := pk.Cycles(); n > 1 {
		pl.nop = int64(n - 1)
	}

	// Strict in-flight read contract: any read of an in-flight register
	// deopts (the generic engine errors, or proceeds when not strict).
	var readBuf [16]Reg
	reads := readBuf[:0]
	for _, in := range pk.Insts {
		reads = readsOf(in, reads)
	}
	for _, r := range reads {
		for _, fi := range c.inflight {
			if fi.reg == r {
				return pl, false
			}
		}
	}

	branches := 0
	for idx, in := range pk.Insts {
		if in.Op != NOP && !in.Pred.Valid {
			pl.uncond++
		}
		switch {
		case in.Op == NOP:
		case in.Op == HALT:
			if in.Pred.Valid {
				pl.haltCond = true
			} else {
				pl.halt = true
			}
		case in.Op == BPKT || in.Op == BREG:
			branches++
			if branches > 1 || c.br.valid {
				return pl, false // overlap: generic reproduces the strict error
			}
			tgt := in.Target
			if in.Op == BREG {
				if in.Src1.IsImm {
					tgt = int(in.Src1.Imm)
				} else {
					v, known := c.fact(in.Src1.Reg)
					switch {
					case known:
						tgt = int(int32(v))
					case in.Pred.Valid:
						return pl, false // predicated, target unknown: generic
					default:
						pl.brRT, pl.brReg = true, in.Src1.Reg
					}
				}
			}
			pl.brTgt = tgt
			if in.Pred.Valid {
				pl.condBr = true
			}
		case in.Op.IsLoad(), in.Op.IsStore():
			pl.hasMem = true
			if in.Op.IsLoad() {
				pl.writes = append(pl.writes, fwrite{
					inst: idx, reg: in.Dst,
					commitOff: c.busy + int64(in.Op.Latency()),
					pred:      in.Pred.Valid,
				})
			}
		default:
			if in.Op != MVK && in.Op != MVKH && unaryKernel(in.Op) == nil && binaryKernel(in.Op) == nil {
				return pl, false // no kernel (INVALID etc.): generic errors
			}
			pl.writes = append(pl.writes, fwrite{
				inst: idx, reg: in.Dst,
				commitOff: c.busy + int64(in.Op.Latency()),
				pred:      in.Pred.Valid,
			})
		}
	}

	// Cycle accounting: a pending branch shortens a multi-cycle NOP. The
	// only path-dependent case (a predicated branch in a packet whose
	// busy differs by takenness) cannot come from the scheduler; deopt.
	pl.busyEff = pl.busyPk
	if c.br.valid && int64(c.br.cnt) < pl.busyEff {
		pl.busyEff = int64(c.br.cnt)
	}
	if pl.condBr {
		takenEff := pl.busyPk
		if int64(BranchDelay+1) < takenEff {
			takenEff = int64(BranchDelay + 1)
		}
		if takenEff != pl.busyEff {
			return pl, false
		}
	}
	busyAfter := c.busy + pl.busyEff

	// Writeback window: split due/keep in pending order, stable-sort due
	// by commit cycle, detect same-cycle collisions (deopt: the generic
	// engine produces the exact strict error), decide direct writes.
	var all []finflight
	all = append(all, c.inflight...)
	for wi := range pl.writes {
		w := &pl.writes[wi]
		// A direct write (straight to Regs at issue) is legal when the
		// commit lands exactly at this packet's end, no same-packet
		// instruction reads the register, and no other write to it is
		// in flight or planned — otherwise commit order matters and the
		// value goes through a slot.
		w.direct = w.commitOff == busyAfter
		if w.direct {
			for _, r := range reads {
				if r == w.reg {
					w.direct = false
					break
				}
			}
		}
		if w.direct {
			for _, fi := range c.inflight {
				if fi.reg == w.reg {
					w.direct = false
					break
				}
			}
			for oi := range pl.writes {
				if oi != wi && pl.writes[oi].reg == w.reg {
					w.direct = false
					break
				}
			}
		}
		if !w.direct {
			slot := -1
			for b := 0; b < fuseMaxSlots; b++ {
				if c.slots&(1<<b) == 0 {
					slot = b
					break
				}
			}
			if slot < 0 {
				return pl, false // slot pressure: deopt
			}
			c.slots |= 1 << slot // provisional; freed on commit or rolled back by caller discipline
			w.slot = uint8(slot)
			all = append(all, finflight{reg: w.reg, rel: w.commitOff, slot: w.slot, pred: w.pred})
		}
	}
	for _, fi := range all {
		if fi.rel <= busyAfter {
			pl.due = append(pl.due, fi)
		} else {
			pl.keep = append(pl.keep, fi)
		}
	}
	sort.SliceStable(pl.due, func(i, j int) bool { return pl.due[i].rel < pl.due[j].rel })
	for i := range pl.due {
		for j := i + 1; j < len(pl.due); j++ {
			if pl.due[i].reg == pl.due[j].reg && pl.due[i].rel == pl.due[j].rel {
				return pl, false // writeback collision: generic reproduces it
			}
		}
	}

	// Facts: kills first (any write to a tracked register), then the
	// MVK/MVKH set when the new value is statically known.
	for wi := range pl.writes {
		if c.tracked(pl.writes[wi].reg) {
			pl.killFacts = append(pl.killFacts, pl.writes[wi].reg)
		}
	}
	for _, in := range pk.Insts {
		if (in.Op != MVK && in.Op != MVKH) || in.Pred.Valid || !c.tracked(in.Dst) {
			continue
		}
		// The value must land this packet (lat 1 always does), be the
		// only write to the register in flight, and be computable.
		solo := true
		for _, fi := range pl.keep {
			if fi.reg == in.Dst {
				solo = false
			}
		}
		writers := 0
		for _, w := range pl.writes {
			if w.reg == in.Dst {
				writers++
			}
		}
		if !solo || writers != 1 {
			continue
		}
		switch in.Op {
		case MVK:
			pl.setFact = &ffact{reg: in.Dst, val: uint32(int32(int16(in.Src2.Imm)))}
		case MVKH:
			if old, known := c.fact(in.Dst); known {
				pl.setFact = &ffact{reg: in.Dst, val: old&0xFFFF | uint32(in.Src2.Imm)<<16}
			}
		}
	}

	// Branch bookkeeping after this packet.
	pl.brAfter = c.br
	if branches == 1 && !pl.condBr {
		pl.brAfter = fbr{valid: true, rt: pl.brRT, reg: pl.brReg, tgt: pl.brTgt, cnt: BranchDelay + 1}
	}
	if pl.brAfter.valid {
		pl.brAfter.cnt -= int(pl.busyEff)
		if pl.brAfter.cnt <= 0 {
			if !pl.condBr {
				pl.fired = true
				pl.firedBr = pl.brAfter
			}
			pl.brAfter = fbr{}
		}
	}
	if pl.fired && pl.firedBr.rt && (pl.halt || pl.haltCond) {
		return pl, false // a HALT in a run-time branch's last delay slot: generic
	}
	if pl.condBr {
		pl.brTaken = fbr{valid: true, tgt: pl.brTgt, cnt: BranchDelay + 1 - int(pl.busyEff)}
		if pl.brTaken.cnt <= 0 {
			// Degenerate: a predicated branch firing at its own packet end
			// (busy ≥ 6) cannot come from the scheduler; deopt.
			return pl, false
		}
	}
	return pl, true
}

// emit lowers the planned packet into ops and advances the symbolic
// state. Issue ops run in instruction order, then the due commits in
// their sorted order, exactly like the interpreter's packet epilogue.
func (c *fctx) emit(pkt int, pl fplan) {
	pk := c.f.prog.Packets[pkt]
	if pl.hasMem {
		c.emitSync()
	}
	wi := 0
	for idx, in := range pk.Insts {
		var w *fwrite
		if wi < len(pl.writes) && pl.writes[wi].inst == idx {
			w = &pl.writes[wi]
			wi++
		}
		c.emitInst(pkt, in, w)
	}
	if pl.hasMem {
		c.memSeen = true
	}

	// Commit ops, in due order.
	for _, fi := range pl.due {
		slot, reg := fi.slot, fi.reg
		if fi.pred {
			c.seg.ops = append(c.seg.ops, func(s *Sim) error {
				if s.fslotOn[slot] {
					s.Regs[reg] = s.fslotVal[slot]
				}
				return nil
			})
		} else {
			c.seg.ops = append(c.seg.ops, func(s *Sim) error {
				s.Regs[reg] = s.fslotVal[slot]
				return nil
			})
		}
		c.slots &^= 1 << slot
	}

	// Fold the accounting constants.
	c.accCyc += pl.busyEff
	c.accPkts++
	c.accInsts += pl.uncond
	c.accNop += pl.nop
	c.busy += pl.busyEff
	c.inflight = append(c.inflight[:0], pl.keep...)

	// Facts.
	for _, r := range pl.killFacts {
		for i := 0; i < len(c.facts); i++ {
			if c.facts[i].reg == r {
				c.facts = append(c.facts[:i], c.facts[i+1:]...)
				i--
			}
		}
	}
	if pl.setFact != nil {
		c.facts = append(c.facts, *pl.setFact)
		sort.Slice(c.facts, func(i, j int) bool { return c.facts[i].reg < c.facts[j].reg })
	}
}

// terminal emits the segment terminal the packet requires, returning
// whether the segment ends here. The branch state advance (brAfter /
// taken-fork / fire) was computed by plan.
func (c *fctx) terminal(pkt int, pl fplan) bool {
	switch {
	case pl.halt:
		c.br = pl.brAfter
		exitPC := pl.next
		if pl.fired {
			exitPC = pl.firedBr.tgt
		}
		c.exitHalt(exitPC)
		return true
	case pl.haltCond:
		// Runtime fork on s.halted (set by the guarded HALT op). The
		// continuation pc is the same either way (fallthrough, or the
		// target of a pre-existing branch firing at this packet's end).
		c.br = pl.brAfter
		next := pl.next
		if pl.fired {
			next = pl.firedBr.tgt
		}
		c.termHaltCond(next, c.stateAt(next))
		return true
	case pl.condBr:
		c.br = pl.brTaken
		taken := c.stateAt(pl.next)
		c.br = pl.brAfter
		fallSeg := c.stateAt(pl.next)
		c.termCond(taken, fallSeg)
		return true
	case pl.fired:
		c.br = fbr{}
		if pl.firedBr.rt {
			c.termIndirect(pl.firedBr.reg)
		} else {
			c.termJump(c.stateAt(pl.firedBr.tgt))
		}
		return true
	default:
		c.br = pl.brAfter
		return false
	}
}

// facc is a folded accounting constant: the constant part of every
// interpreted packet epilogue since the last synchronization point.
type facc struct{ cyc, pkts, insts, nop int64 }

// apply folds a into the Sim, paid once per sync point. Memory stalls
// collected in fstall freeze the cycle clock exactly like the
// interpreter's per-packet stall accounting.
func (a facc) apply(s *Sim) {
	s.cycle += a.cyc + s.fstall
	s.busy += a.cyc
	s.stats.StallCycles += s.fstall
	s.fstall = 0
	s.stats.Packets += a.pkts
	s.stats.Instructions += a.insts
	s.stats.NopCycles += a.nop
}

// take drains the accounting accumulators for a terminal/sync op.
func (c *fctx) take() facc {
	a := facc{c.accCyc, c.accPkts, c.accInsts, c.accNop}
	c.accCyc, c.accPkts, c.accInsts, c.accNop = 0, 0, 0, 0
	c.memSeen = false
	return a
}

// emitSync folds the accumulated constants into the Sim.
func (c *fctx) emitSync() {
	if c.accCyc == 0 && c.accPkts == 0 && !c.memSeen {
		return
	}
	acc := c.take()
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		acc.apply(s)
		return nil
	})
}

// flushList returns the current in-flight window with rels rebased to
// the exit's busy clock.
func (c *fctx) flushList() []finflight {
	var fl []finflight
	for _, fi := range c.inflight {
		fi.rel -= c.busy
		fl = append(fl, fi)
	}
	return fl
}

// materialize appends an in-flight window (rels relative to the current
// busy clock) to the interpreter's pending list.
func materialize(s *Sim, fl []finflight) {
	for _, fi := range fl {
		if fi.pred && !s.fslotOn[fi.slot] {
			continue
		}
		s.pending = append(s.pending, writeback{reg: fi.reg, val: s.fslotVal[fi.slot], commitAt: s.busy + fi.rel})
	}
}

// exitDeopt materializes the exact interpreter state at pkt and leaves
// fused execution.
func (c *fctx) exitDeopt(pkt int) {
	acc := c.take()
	fl := c.flushList()
	br := c.br
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		acc.apply(s)
		materialize(s, fl)
		s.pc = pkt
		br.restore(s)
		s.fnext = fnextExit
		return nil
	})
}

// exitHalt materializes the halted state (HALT executed this packet).
func (c *fctx) exitHalt(exitPC int) {
	acc := c.take()
	fl := c.flushList()
	br := c.br
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		acc.apply(s)
		s.halted = true
		materialize(s, fl)
		s.pc = exitPC
		br.restore(s)
		s.fnext = fnextExit
		return nil
	})
}

// termHaltCond forks at run time on whether the guarded HALT executed.
func (c *fctx) termHaltCond(exitPC int, fall int32) {
	acc := c.take()
	fl := c.flushList()
	br := c.br
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		acc.apply(s)
		if !s.halted {
			s.fnext = fall
			return nil
		}
		materialize(s, fl)
		s.pc = exitPC
		br.restore(s)
		s.fnext = fnextExit
		return nil
	})
}

// termCond forks on the predicated branch issued this packet (fcond0
// was set by its issue op).
func (c *fctx) termCond(taken, fall int32) {
	acc := c.take()
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		acc.apply(s)
		if s.fcond0 {
			s.fnext = taken
		} else {
			s.fnext = fall
		}
		return nil
	})
}

// termJump chains to the next segment.
func (c *fctx) termJump(next int32) {
	acc := c.take()
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		acc.apply(s)
		s.fnext = next
		return nil
	})
}

// termIndirect ends the segment where a run-time-target branch through
// reg fires (its target was captured into fbrTgt at issue). Each
// candidate target has a continuation compiled with the current
// in-flight window, so a return to a known call site stays fused with
// its writebacks still symbolic. A miss chains to the target's clean
// entry when nothing is in flight; otherwise it materializes the window
// and exits at the target, flagging a landing on a region start so the
// boundary actions still run there.
func (c *fctx) termIndirect(reg Reg) {
	cands := c.f.indirectTargets(reg)
	conts := make([]int32, len(cands))
	for i, t := range cands {
		conts[i] = c.stateAt(t)
	}
	acc := c.take()
	fl := c.flushList()
	regionOf := c.f.cfg.RegionOf
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		acc.apply(s)
		tgt := s.fbrTgt
		for i, t := range cands {
			if t == tgt {
				s.eng.IndirectHits++
				s.fnext = conts[i]
				return nil
			}
		}
		s.eng.IndirectMisses++
		if len(fl) == 0 {
			if si := s.fused.entryAt(tgt); si >= 0 {
				s.fnext = si
				return nil
			}
		}
		materialize(s, fl)
		s.pc = tgt
		s.fnext = fnextExit
		if tgt >= 0 && tgt < len(regionOf) && regionOf[tgt] >= 0 {
			s.fnext = fnextLanded
		}
		return nil
	})
}

// indirectTargets returns the candidate targets of a run-time-target
// branch through r: the in-range packet indices the program MVKs into
// r (a link register's return sites). Empty above
// fuseMaxIndirectTargets.
func (f *fuser) indirectTargets(r Reg) []int {
	if t, ok := f.targets[r]; ok {
		return t
	}
	var t []int
	for _, pk := range f.prog.Packets {
		for _, in := range pk.Insts {
			if in.Op != MVK || in.Dst != r {
				continue
			}
			v := int(int32(int16(in.Src2.Imm)))
			if v >= 0 && v < len(f.prog.Packets) && !slices.Contains(t, v) {
				t = append(t, v)
			}
		}
	}
	if len(t) > fuseMaxIndirectTargets {
		t = nil
	}
	f.targets[r] = t
	return t
}

// emitInst lowers one instruction. w is its planned write (nil for
// non-writing instructions).
func (c *fctx) emitInst(pkt int, in Inst, w *fwrite) {
	switch {
	case in.Op == NOP:
		return
	case in.Op == HALT:
		if !in.Pred.Valid {
			return // folded into the exit terminal
		}
		pr, neg := in.Pred.Reg, in.Pred.Neg
		c.seg.ops = append(c.seg.ops, func(s *Sim) error {
			if (s.Regs[pr] != 0) == neg {
				return nil
			}
			s.stats.Instructions++
			s.halted = true
			return nil
		})
		return
	case in.Op == BPKT || in.Op == BREG:
		if !in.Pred.Valid {
			// Accounting is folded, and a static target is known to the
			// fuser. A run-time target (plan's brRT) is captured here; a
			// same-packet writer of the register goes through a slot, so
			// Regs holds the packet-start value.
			if in.Op == BREG && !in.Src1.IsImm {
				if _, known := c.fact(in.Src1.Reg); !known {
					r := in.Src1.Reg
					c.seg.ops = append(c.seg.ops, func(s *Sim) error {
						s.fbrTgt = int(int32(s.Regs[r]))
						return nil
					})
				}
			}
			return
		}
		pr, neg := in.Pred.Reg, in.Pred.Neg
		c.seg.ops = append(c.seg.ops, func(s *Sim) error {
			t := (s.Regs[pr] != 0) != neg
			if t {
				s.stats.Instructions++
			}
			s.fcond0 = t
			return nil
		})
		return
	case in.Op.IsLoad():
		c.emitLoad(pkt, in, w)
		return
	case in.Op.IsStore():
		c.emitStore(pkt, in)
		return
	}
	c.emitALU(in, w)
}

// fusedLoadRaw performs the load access and stall accounting shared by
// every load shape.
func (s *Sim) fusedLoadRaw(pkt int, addr uint32, sz int) (uint32, error) {
	v, cont, err := s.mem.Load(addr, sz, s.cycle)
	if err != nil {
		return 0, s.errf(pkt, "load @%#x: %v", addr, err)
	}
	s.fstall += cont - s.cycle
	return v, nil
}

func loadExtend(op Op, v uint32) uint32 {
	switch op {
	case LDH:
		return uint32(int32(int16(v)))
	case LDB:
		return uint32(int32(int8(v)))
	}
	return v
}

func (c *fctx) emitLoad(pkt int, in Inst, w *fwrite) {
	op := in.Op
	off := uint32(in.Src2.Imm)
	sz := in.Op.MemSize()
	immBase := in.Src1.IsImm
	var immAddr uint32
	base := in.Src1.Reg
	if immBase {
		immAddr = uint32(in.Src1.Imm) + off
	}
	slot := w.slot
	dst := w.reg
	direct := w.direct
	if !in.Pred.Valid {
		// Instruction count folded into the accounting sync (pl.uncond).
		c.seg.ops = append(c.seg.ops, func(s *Sim) error {
			addr := immAddr
			if !immBase {
				addr = s.Regs[base] + off
			}
			v, err := s.fusedLoadRaw(pkt, addr, sz)
			if err != nil {
				return err
			}
			v = loadExtend(op, v)
			if direct {
				s.Regs[dst] = v
			} else {
				s.fslotVal[slot] = v
			}
			return nil
		})
		return
	}
	pr, neg := in.Pred.Reg, in.Pred.Neg
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		if (s.Regs[pr] != 0) == neg {
			if !direct {
				s.fslotOn[slot] = false
			}
			return nil
		}
		s.stats.Instructions++
		addr := immAddr
		if !immBase {
			addr = s.Regs[base] + off
		}
		v, err := s.fusedLoadRaw(pkt, addr, sz)
		if err != nil {
			return err
		}
		v = loadExtend(op, v)
		if direct {
			s.Regs[dst] = v
		} else {
			s.fslotOn[slot] = true
			s.fslotVal[slot] = v
		}
		return nil
	})
}

func (c *fctx) emitStore(pkt int, in Inst) {
	off := uint32(in.Src2.Imm)
	sz := in.Op.MemSize()
	immBase := in.Src1.IsImm
	var immAddr uint32
	base := in.Src1.Reg
	if immBase {
		immAddr = uint32(in.Src1.Imm) + off
	}
	data := in.Data
	p32 := int32(pkt)
	// Instruction count: folded (pl.uncond) for the unpredicated shape,
	// counted at run time by the predicated wrapper.
	body := func(s *Sim) error {
		s.fusedPkt = p32
		addr := immAddr
		if !immBase {
			addr = s.Regs[base] + off
		}
		cont, err := s.mem.Store(addr, s.Regs[data], sz, s.cycle)
		if err != nil {
			return s.errf(pkt, "store @%#x: %v", addr, err)
		}
		s.fstall += cont - s.cycle
		return nil
	}
	if !in.Pred.Valid {
		c.seg.ops = append(c.seg.ops, body)
		return
	}
	pr, neg := in.Pred.Reg, in.Pred.Neg
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		if (s.Regs[pr] != 0) == neg {
			return nil
		}
		s.stats.Instructions++
		return body(s)
	})
}

// emitALU lowers a register-writing ALU op: a value computation wrapped
// in the direct/slot and predicate shells.
func (c *fctx) emitALU(in Inst, w *fwrite) {
	compute := fusedCompute(in)
	slot := w.slot
	dst := w.reg
	direct := w.direct
	if !in.Pred.Valid {
		// Instruction count folded into the accounting sync (pl.uncond).
		if direct {
			c.seg.ops = append(c.seg.ops, func(s *Sim) error {
				s.Regs[dst] = compute(s)
				return nil
			})
		} else {
			c.seg.ops = append(c.seg.ops, func(s *Sim) error {
				s.fslotVal[slot] = compute(s)
				return nil
			})
		}
		return
	}
	pr, neg := in.Pred.Reg, in.Pred.Neg
	if direct {
		c.seg.ops = append(c.seg.ops, func(s *Sim) error {
			if (s.Regs[pr] != 0) == neg {
				return nil
			}
			s.stats.Instructions++
			s.Regs[dst] = compute(s)
			return nil
		})
		return
	}
	c.seg.ops = append(c.seg.ops, func(s *Sim) error {
		if (s.Regs[pr] != 0) == neg {
			s.fslotOn[slot] = false
			return nil
		}
		s.stats.Instructions++
		s.fslotOn[slot] = true
		s.fslotVal[slot] = compute(s)
		return nil
	})
}

// fusedCompute builds the value function of an ALU op (same-packet
// reads see packet-start register values: plan routes any same-packet
// writer of a read register through a slot, so Regs is stable here).
func fusedCompute(in Inst) func(s *Sim) uint32 {
	switch in.Op {
	case MVK:
		v := uint32(int32(int16(in.Src2.Imm)))
		return func(*Sim) uint32 { return v }
	case MVKH:
		hi := uint32(in.Src2.Imm) << 16
		dst := in.Dst
		return func(s *Sim) uint32 { return s.Regs[dst]&0xFFFF | hi }
	}
	if k := unaryKernel(in.Op); k != nil {
		if in.Src1.IsImm {
			v := k(uint32(in.Src1.Imm))
			return func(*Sim) uint32 { return v }
		}
		r1 := in.Src1.Reg
		return func(s *Sim) uint32 { return k(s.Regs[r1]) }
	}
	k := binaryKernel(in.Op)
	switch {
	case !in.Src1.IsImm && !in.Src2.IsImm:
		r1, r2 := in.Src1.Reg, in.Src2.Reg
		return func(s *Sim) uint32 { return k(s.Regs[r1], s.Regs[r2]) }
	case !in.Src1.IsImm && in.Src2.IsImm:
		r1, b := in.Src1.Reg, uint32(in.Src2.Imm)
		return func(s *Sim) uint32 { return k(s.Regs[r1], b) }
	case in.Src1.IsImm && !in.Src2.IsImm:
		a, r2 := uint32(in.Src1.Imm), in.Src2.Reg
		return func(s *Sim) uint32 { return k(a, s.Regs[r2]) }
	default:
		v := k(uint32(in.Src1.Imm), uint32(in.Src2.Imm))
		return func(*Sim) uint32 { return v }
	}
}
