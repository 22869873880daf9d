package c6x

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// regions builds a RegionOf map for n packets with region starts at the
// given packet indices.
func regions(n int, starts ...int) []int32 {
	ro := make([]int32, n)
	for i := range ro {
		ro[i] = -1
	}
	for ri, p := range starts {
		ro[p] = int32(ri)
	}
	return ro
}

func mustFuse(t *testing.T, prog *Program, cfg FuseConfig) *FusedProgram {
	t.Helper()
	fp, err := Fuse(prog, cfg)
	if err != nil {
		t.Fatalf("fuse: %v", err)
	}
	return fp
}

// runTriple executes the same program on the interpreter, the compiled
// engine (via runBoth) and the fused engine, requiring bit-identical
// outcomes across all three: error presence and text, registers, cycle
// count, statistics, store sequences and memory.
func runTriple(t *testing.T, cfg FuseConfig, packets ...Packet) (*Sim, *Sim) {
	t.Helper()
	runBoth(t, packets...)
	return runTripleMem(t, cfg, nil, packets...)
}

// runTripleMem is runTriple's interpreter-vs-fused core with an optional
// memory configurator (stall regions etc.) applied to both sides.
func runTripleMem(t *testing.T, cfg FuseConfig, memCfg func(*testMem), packets ...Packet) (*Sim, *Sim) {
	t.Helper()

	im := newTestMem()
	if memCfg != nil {
		memCfg(im)
	}
	is := NewSim(&Program{Packets: packets}, im)
	ierr := is.Run()

	fprog := &Program{Packets: packets}
	fm := newTestMem()
	if memCfg != nil {
		memCfg(fm)
	}
	fs := NewSim(fprog, fm)
	fp := mustFuse(t, fprog, cfg)
	if err := fs.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	if !fs.Fused() {
		t.Fatal("fused engine not attached")
	}
	ferr := fs.RunFused()

	if (ierr == nil) != (ferr == nil) {
		t.Fatalf("error divergence: interp=%v fused=%v", ierr, ferr)
	}
	if ierr != nil && ierr.Error() != ferr.Error() {
		t.Fatalf("error text divergence:\n  interp: %v\n  fused:  %v", ierr, ferr)
	}
	if is.Regs != fs.Regs {
		t.Fatalf("register divergence:\n  interp: %v\n  fused:  %v", is.Regs, fs.Regs)
	}
	if is.Cycle() != fs.Cycle() {
		t.Fatalf("cycle divergence: interp=%d fused=%d", is.Cycle(), fs.Cycle())
	}
	if is.Stats() != fs.Stats() {
		t.Fatalf("stats divergence:\n  interp: %+v\n  fused:  %+v", is.Stats(), fs.Stats())
	}
	if is.Halted() != fs.Halted() {
		t.Fatalf("halt divergence: interp=%v fused=%v", is.Halted(), fs.Halted())
	}
	if ierr == nil && is.PC() != fs.PC() {
		t.Fatalf("pc divergence: interp=%d fused=%d", is.PC(), fs.PC())
	}
	if !reflect.DeepEqual(im.stores, fm.stores) {
		t.Fatalf("store-sequence divergence: interp=%v fused=%v", im.stores, fm.stores)
	}
	if !reflect.DeepEqual(im.ram, fm.ram) {
		t.Fatal("memory divergence")
	}
	return is, fs
}

func TestFusedMatchesInterpreterBasics(t *testing.T) {
	cases := map[string]struct {
		packets []Packet
		starts  []int
	}{
		"straight-line": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x5678)}),
				pk(Inst{Op: MVKH, Unit: S1, Dst: A(1), Src2: Imm(0x1234)}),
				pk(Inst{Op: ADD, Unit: L1, Dst: A(2), Src1: R(A(1)), Src2: Imm(1)}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0, 2},
		},
		"counted-loop": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(8), Src2: Imm(5)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(0)}),
				pk(Inst{Op: ADD, Unit: L1, Dst: A(9), Src1: R(A(9)), Src2: R(A(8))}), // loop head
				pk(Inst{Op: SUB, Unit: L1, Dst: A(8), Src1: R(A(8)), Src2: Imm(1)}),
				pk(Inst{Op: BPKT, Unit: S1, Target: 2, Pred: Pred{Valid: true, Reg: A(8)}}),
				pk(Inst{Op: NOP, NopCycles: 5}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0, 2},
		},
		"loop-with-memory": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(10), Src2: Imm(0x200)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(8), Src2: Imm(4)}),
				pk(Inst{Op: STW, Unit: D1, Data: A(8), Src1: R(A(10)), Src2: Imm(0)}), // loop head
				pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(10)), Src2: Imm(0)}),
				pk(Inst{Op: SUB, Unit: L1, Dst: A(8), Src1: R(A(8)), Src2: Imm(1)}),
				pk(Inst{Op: BPKT, Unit: S1, Target: 2, Pred: Pred{Valid: true, Reg: A(8)}}),
				pk(Inst{Op: NOP, NopCycles: 5}),
				pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(2)), Src2: R(A(2))}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0, 2},
		},
		"branch-shortens-nop": {
			packets: []Packet{
				pk(Inst{Op: BPKT, Unit: S1, Target: 3}),
				pk(Inst{Op: NOP, NopCycles: 5}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(9)}), // skipped
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0},
		},
		"predication-mix": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(0)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(3), Src2: Imm(10), Pred: Pred{Valid: true, Reg: A(1)}}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(11), Pred: Pred{Valid: true, Reg: A(2)}}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(12), Pred: Pred{Valid: true, Neg: true, Reg: A(2)}}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0, 3},
		},
		"predicated-memory": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(10), Src2: Imm(0x100)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(0)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(3), Src2: Imm(0x2A)}),
				pk(Inst{Op: STW, Unit: D1, Data: A(3), Src1: R(A(10)), Src2: Imm(0), Pred: Pred{Valid: true, Reg: A(1)}}),
				pk(Inst{Op: STW, Unit: D1, Data: A(3), Src1: R(A(10)), Src2: Imm(4), Pred: Pred{Valid: true, Reg: A(2)}}), // off
				pk(Inst{Op: LDW, Unit: D1, Dst: A(4), Src1: R(A(10)), Src2: Imm(0), Pred: Pred{Valid: true, Reg: A(1)}}),
				pk(Inst{Op: LDW, Unit: D1, Dst: A(5), Src1: R(A(10)), Src2: Imm(4), Pred: Pred{Valid: true, Reg: A(2)}}), // off: no writeback
				pk(Inst{Op: NOP, NopCycles: 4}),
				pk(Inst{Op: ADD, Unit: L1, Dst: A(6), Src1: R(A(4)), Src2: R(A(5))}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0},
		},
		"subword-sext": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(-2)}),
				pk(Inst{Op: STB, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(0)}),
				pk(Inst{Op: STH, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(4)}),
				pk(Inst{Op: LDB, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),
				pk(Inst{Op: NOP, NopCycles: 4}),
				pk(Inst{Op: LDBU, Unit: D1, Dst: A(3), Src1: R(A(5)), Src2: Imm(0)}),
				pk(Inst{Op: NOP, NopCycles: 4}),
				pk(Inst{Op: LDH, Unit: D1, Dst: A(4), Src1: R(A(5)), Src2: Imm(4)}),
				pk(Inst{Op: NOP, NopCycles: 4}),
				pk(Inst{Op: LDHU, Unit: D1, Dst: A(6), Src1: R(A(5)), Src2: Imm(4)}),
				pk(Inst{Op: NOP, NopCycles: 4}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0, 4},
		},
		"mpy-delay-slot": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(6)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(7)}),
				pk(Inst{Op: MPY, Unit: M1, Dst: A(3), Src1: R(A(1)), Src2: R(A(2))}),
				pk(Inst{Op: NOP, NopCycles: 1}),
				pk(Inst{Op: ADD, Unit: L1, Dst: A(4), Src1: R(A(3)), Src2: R(A(3))}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0},
		},
		"predicated-halt-taken": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
				pk(Inst{Op: HALT, Pred: Pred{Valid: true, Reg: A(1)}}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}), // not reached
				pk(Inst{Op: HALT}),
			},
			starts: []int{0},
		},
		"predicated-halt-skipped": {
			packets: []Packet{
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0)}),
				pk(Inst{Op: HALT, Pred: Pred{Valid: true, Reg: A(1)}}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}),
				pk(Inst{Op: HALT}),
			},
			starts: []int{0},
		},
		"region-start-in-delay-slot": {
			// The branch is in flight when the trace crosses the region
			// start at packet 2: the boundary segment carries entry branch
			// state.
			packets: []Packet{
				pk(Inst{Op: BPKT, Unit: S1, Target: 5}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}), // region start, branch pending
				pk(Inst{Op: MVK, Unit: S1, Dst: A(3), Src2: Imm(3)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(4)}),
				pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(9)}), // skipped
				pk(Inst{Op: HALT}),
			},
			starts: []int{0, 2},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			runTriple(t, FuseConfig{RegionOf: regions(len(tc.packets), tc.starts...)}, tc.packets...)
		})
	}
}

func TestFusedMatchesInterpreterErrors(t *testing.T) {
	cases := map[string][]Packet{
		"load-use-too-early": {
			pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
			pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),
			pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(2)), Src2: R(A(2))}),
			pk(Inst{Op: HALT}),
		},
		"overlapping-branches": {
			pk(Inst{Op: BPKT, Unit: S1, Target: 0}),
			pk(Inst{Op: BPKT, Unit: S1, Target: 0}),
			pk(Inst{Op: HALT}),
		},
		"writeback-collision": {
			pk(Inst{Op: MPY, Unit: M1, Dst: A(3), Src1: R(A(1)), Src2: R(A(2))}),
			pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(1)), Src2: R(A(2))}),
			pk(Inst{Op: HALT}),
		},
		"fell-off-program": {
			pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
		},
		"unmapped-target": {
			pk(Inst{Op: BPKT, Unit: S1, Target: 99}),
			pk(Inst{Op: NOP, NopCycles: 5}),
			pk(Inst{Op: HALT}),
		},
	}
	for name, packets := range cases {
		t.Run(name, func(t *testing.T) {
			runTriple(t, FuseConfig{RegionOf: regions(len(packets), 0)}, packets...)
		})
	}
}

// TestFusedBREGFactResolution: MVK/MVKH-built indirect branch targets in
// tracked registers are resolved statically and stay fused; untracked
// ones take the run-time-target path with identical results.
func TestFusedBREGFactResolution(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: B(3), Src2: Imm(8)}),
		pk(Inst{Op: MVKH, Unit: S1, Dst: B(3), Src2: Imm(0)}),
		pk(Inst{Op: BREG, Unit: S1, Src1: R(B(3))}),
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(9)}), // skipped
		pk(Inst{Op: HALT}), // skipped
		pk(Inst{Op: NOP}),  // skipped
		pk(Inst{Op: NOP}),  // skipped
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}), // BREG target
		pk(Inst{Op: HALT}),
	}
	t.Run("tracked", func(t *testing.T) {
		_, fs := runTriple(t, FuseConfig{
			RegionOf:  regions(len(packets), 0, 8),
			ConstRegs: []Reg{B(3)},
		}, packets...)
		if fs.Reg(A(1)) != 1 {
			t.Fatalf("A1 = %d, want 1", fs.Reg(A(1)))
		}
	})
	t.Run("untracked-runtime-target", func(t *testing.T) {
		runTriple(t, FuseConfig{RegionOf: regions(len(packets), 0, 8)}, packets...)
	})
}

// TestFusedBREGStaysFused proves fact-resolved indirect loops execute
// without deoptimizing: the boundary hook keeps firing, which a deopt
// (StepFused returning) would cut short.
func TestFusedBREGStaysFused(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: B(3), Src2: Imm(0)}), // loop head and BREG target
		pk(Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(1)), Src2: Imm(1)}),
		pk(Inst{Op: BREG, Unit: S1, Src1: R(B(3))}),
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: HALT}), // never reached
	}
	prog := &Program{Packets: packets}
	fp := mustFuse(t, prog, FuseConfig{RegionOf: regions(len(packets), 0), ConstRegs: []Reg{B(3)}})
	s := NewSim(prog, newTestMem())
	if err := s.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	boundaries := 0
	stopped, err := s.StepFused(func() (bool, error) {
		boundaries++
		return boundaries >= 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Fatal("StepFused returned without the hook stopping: the loop deoptimized")
	}
	if boundaries != 10 {
		t.Fatalf("hook fired %d times, want 10", boundaries)
	}
	if s.Reg(A(1)) != 10 {
		t.Fatalf("A1 = %d, want 10 iterations", s.Reg(A(1)))
	}
}

// recursiveReturnProg is a recursive routine in the translator's shape:
// calls park the return packet in B11 with an MVK, the callee spills B11
// to a stack frame and reloads it before returning through it, so the
// return target is unknown at fuse time. With dummyLoad the return's last
// delay slot issues a load still in flight when the branch fires, like the
// Level3 sync drain.
func recursiveReturnProg(dummyLoad bool) []Packet {
	last := pk(Inst{Op: NOP, NopCycles: 5})
	if dummyLoad {
		last = pk(Inst{Op: NOP, NopCycles: 4})
	}
	return []Packet{
		pk(Inst{Op: MVK, Unit: S2, Dst: B(15), Src2: Imm(0x400)}), // 0: sp
		pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(3)}),      // 1: n
		pk(Inst{Op: MVK, Unit: S2, Dst: B(11), Src2: Imm(5)}),     // 2: return site
		pk(Inst{Op: BPKT, Unit: S1, Target: 7}),                   // 3: call f
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(6), Src1: R(A(5)), Src2: Imm(100)}), // 5: return site
		pk(Inst{Op: HALT}),
		// f (7): push B11; if n == 0 return; n--; call f; count; return.
		pk(Inst{Op: SUB, Unit: L2, Dst: B(15), Src1: R(B(15)), Src2: Imm(4)}),
		pk(Inst{Op: STW, Unit: D2, Data: B(11), Src1: R(B(15)), Src2: Imm(0)}),
		pk(Inst{Op: BPKT, Unit: S1, Target: 16, Pred: Pred{Valid: true, Reg: A(4), Neg: true}}), // 9
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: SUB, Unit: L1, Dst: A(4), Src1: R(A(4)), Src2: Imm(1)}), // 11
		pk(Inst{Op: MVK, Unit: S2, Dst: B(11), Src2: Imm(15)}),              // return site
		pk(Inst{Op: BPKT, Unit: S1, Target: 7}),                             // recursive call
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(5), Src1: R(A(5)), Src2: Imm(1)}),   // 15: return site
		pk(Inst{Op: LDW, Unit: D2, Dst: B(11), Src1: R(B(15)), Src2: Imm(0)}), // 16: reload
		pk(Inst{Op: NOP, NopCycles: 4}),
		pk(Inst{Op: ADD, Unit: L2, Dst: B(15), Src1: R(B(15)), Src2: Imm(4)}),
		pk(Inst{Op: BREG, Unit: S2, Src1: R(B(11))}), // 19: return
		last,
		pk(Inst{Op: LDW, Unit: D1, Dst: A(31), Src1: Imm(0x100), Src2: Imm(0)}), // 21 (dummyLoad only)
	}
}

// TestFusedRecursiveReturn: returns through a register reloaded from
// memory dispatch at run time into per-site continuations — both with
// nothing in flight and with a load in flight across the return — and
// stay fused: every return hits its table, and no packet runs in the
// generic engines.
func TestFusedRecursiveReturn(t *testing.T) {
	for _, dummyLoad := range []bool{false, true} {
		packets := recursiveReturnProg(dummyLoad)
		for _, tracked := range []bool{false, true} {
			cfg := FuseConfig{RegionOf: regions(len(packets), 0, 5, 7, 11, 15, 16)}
			if tracked {
				cfg.ConstRegs = []Reg{B(11)} // tracked, but the reload kills the fact
			}
			_, fs := runTriple(t, cfg, packets...)
			if fs.Reg(A(6)) != 103 {
				t.Fatalf("A6 = %d, want 103", fs.Reg(A(6)))
			}
			ec := fs.EngineCounters()
			if ec.IndirectHits != 4 || ec.IndirectMisses != 0 || ec.GenericPackets != 0 {
				t.Fatalf("dummyLoad=%v tracked=%v: %+v, want 4 hits, no misses, no generic packets", dummyLoad, tracked, ec)
			}
		}
	}
}

// TestFusedIndirectMiss: run-time targets outside the candidate table —
// a computed register, or one loaded with more distinct packet indices
// than the table holds — landing on a region start, on a mid-region
// packet and off the program, with nothing in flight, with a load in
// flight, and with a HALT in the branch's last delay slot (which stays
// with the generic engine).
func TestFusedIndirectMiss(t *testing.T) {
	delays := map[string][2]Packet{ // packets 3 and 4: the delay slots after packet 2
		"nothing-in-flight": {pk(Inst{Op: NOP, NopCycles: 5}), pk(Inst{Op: NOP})},
		"load-in-flight":    {pk(Inst{Op: NOP, NopCycles: 4}), pk(Inst{Op: LDW, Unit: D1, Dst: A(31), Src1: Imm(0x100), Src2: Imm(0)})},
		"halt-in-last-slot": {pk(Inst{Op: NOP, NopCycles: 4}), pk(Inst{Op: HALT})},
	}
	for name, delay := range delays {
		for _, tgt := range []int32{7, 8, 99} {
			for _, extra := range []int{0, fuseMaxIndirectTargets + 1} {
				packets := []Packet{
					pk(Inst{Op: MVK, Unit: S2, Dst: B(4), Src2: Imm(tgt)}),              // 0
					pk(Inst{Op: ADD, Unit: L2, Dst: B(5), Src1: R(B(4)), Src2: Imm(0)}), // 1: computed target
					pk(Inst{Op: BREG, Unit: S2, Src1: R(B(5))}),                         // 2
					delay[0],
					delay[1],
					pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(9)}), // 5: skipped
					pk(Inst{Op: HALT}), // 6: skipped
					pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}), // 7: region start
					pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}), // 8: mid-region
					pk(Inst{Op: HALT}),
				}
				for i := 0; i < extra; i++ { // unreachable candidates for B5
					packets = append(packets, pk(Inst{Op: MVK, Unit: S2, Dst: B(5), Src2: Imm(int32(i))}))
				}
				_, fs := runTriple(t, FuseConfig{RegionOf: regions(len(packets), 0, 7)}, packets...)
				wantMisses := int64(1)
				if name == "halt-in-last-slot" {
					wantMisses = 0
				}
				if ec := fs.EngineCounters(); ec.IndirectMisses != wantMisses || ec.IndirectHits != 0 {
					t.Fatalf("%s tgt=%d extra=%d: %+v, want %d misses and no hits", name, tgt, extra, ec, wantMisses)
				}
			}
		}
	}
}

// boundaryLog is one hook observation of runHooked.
type boundaryLog struct {
	pc    int
	cycle int64
	stats Stats
}

// runHooked drives s the way the platform's quantum loop does: fused
// segments where the state allows, generic steps otherwise, and the
// boundary hook after every generic step that lands on a region start
// and does not halt (StepFused fires it at the boundaries it crosses
// itself). The hook
// logs each boundary and, at the deliver-th one, delivers an interrupt:
// it parks the pc in B27 and redirects to handler.
func runHooked(t *testing.T, s *Sim, regionOf []int32, deliver, handler int) []boundaryLog {
	t.Helper()
	var log []boundaryLog
	hook := func() (bool, error) {
		log = append(log, boundaryLog{s.PC(), s.Cycle(), s.Stats()})
		if len(log) == deliver {
			s.SetReg(B(27), uint32(s.PC()))
			s.SetPC(handler)
		}
		return false, nil
	}
	for steps := 0; !s.Halted(); steps++ {
		if steps > 10_000 {
			t.Fatal("runaway")
		}
		if s.FusedEntryOK() {
			if _, err := s.StepFused(hook); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if pc := s.PC(); !s.Halted() && pc >= 0 && pc < len(regionOf) && regionOf[pc] >= 0 {
			if _, err := hook(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return log
}

// TestFusedIndirectLandingHook: a run-time branch that misses with a load
// in flight exits onto a region start; the hook must still fire there
// exactly as after the generic engine's landing step — swept over every
// boundary as the interrupt delivery point, the landing included.
func TestFusedIndirectLandingHook(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(8), Src2: Imm(3)}),                    // 0: loop count
		pk(Inst{Op: MVK, Unit: S2, Dst: B(4), Src2: Imm(7)}),                    // 1
		pk(Inst{Op: ADD, Unit: L2, Dst: B(5), Src1: R(B(4)), Src2: Imm(0)}),     // 2: computed target
		pk(Inst{Op: SUB, Unit: L1, Dst: A(8), Src1: R(A(8)), Src2: Imm(1)}),     // 3: loop head
		pk(Inst{Op: BREG, Unit: S2, Src1: R(B(5))}),                             // 4
		pk(Inst{Op: NOP, NopCycles: 4}),                                         // 5
		pk(Inst{Op: LDW, Unit: D1, Dst: A(31), Src1: Imm(0x100), Src2: Imm(0)}), // 6: in flight at the landing
		pk(Inst{Op: ADD, Unit: L1, Dst: A(9), Src1: R(A(9)), Src2: Imm(1)}),     // 7: landing (region start)
		pk(Inst{Op: BPKT, Unit: S1, Target: 3, Pred: Pred{Valid: true, Reg: A(8)}}),
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: HALT}),                                                    // 10
		pk(Inst{Op: ADD, Unit: L1, Dst: A(12), Src1: R(A(12)), Src2: Imm(1)}), // 11: handler
		pk(Inst{Op: BREG, Unit: S2, Src1: R(B(27))}),                          // return from interrupt
		pk(Inst{Op: NOP, NopCycles: 5}),
	}
	const handler = 11
	regionOf := regions(len(packets), 0, 3, 7, 10, handler)
	for deliver := 0; deliver <= 8; deliver++ {
		is := NewSim(&Program{Packets: packets}, newTestMem())
		want := runHooked(t, is, regionOf, deliver, handler)

		fprog := &Program{Packets: packets}
		fs := NewSim(fprog, newTestMem())
		if err := fs.UseFused(mustFuse(t, fprog, FuseConfig{RegionOf: regionOf})); err != nil {
			t.Fatal(err)
		}
		got := runHooked(t, fs, regionOf, deliver, handler)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("deliver=%d: boundary sequence diverged:\n  interp: %+v\n  fused:  %+v", deliver, want, got)
		}
		if is.Regs != fs.Regs || is.Cycle() != fs.Cycle() || is.Stats() != fs.Stats() || is.PC() != fs.PC() {
			t.Fatalf("deliver=%d: state divergence:\n  interp: cycle=%d pc=%d %+v\n  fused:  cycle=%d pc=%d %+v",
				deliver, is.Cycle(), is.PC(), is.Stats(), fs.Cycle(), fs.PC(), fs.Stats())
		}
		if deliver > 0 && deliver <= len(want) && fs.Reg(A(12)) != 1 {
			t.Fatalf("deliver=%d: handler ran %d times, want 1", deliver, fs.Reg(A(12)))
		}
		if fs.EngineCounters().IndirectMisses == 0 {
			t.Fatalf("deliver=%d: no run-time branch missed — the landing path was not exercised", deliver)
		}
	}
}

// TestFusedMemoryStall: memory stalls accrued in fused code freeze the
// cycle clock exactly like the interpreter's per-packet accounting.
func TestFusedMemoryStall(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x300)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x2A)}),
		pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: NOP, NopCycles: 4}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(2)), Src2: R(A(2))}),
		pk(Inst{Op: HALT}),
	}
	is, _ := runTripleMem(t, FuseConfig{RegionOf: regions(len(packets), 0, 3)}, func(m *testMem) {
		m.stallAddr = 0x300
		m.stallLen = 7
	}, packets...)
	if is.Stats().StallCycles == 0 {
		t.Fatal("test did not exercise memory stalls")
	}
}

// TestFusedInflightAcrossBoundary: a load writeback in flight across a
// region boundary rides the symbolic window through the boundary
// segment and commits on time.
func TestFusedInflightAcrossBoundary(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x2A)}),
		pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(6), Src2: Imm(6)}), // region start, load in flight
		pk(Inst{Op: NOP, NopCycles: 3}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(2)), Src2: R(A(2))}),
		pk(Inst{Op: HALT}),
	}
	runTriple(t, FuseConfig{RegionOf: regions(len(packets), 0, 4)}, packets...)
}

// TestStepFusedHookRedirect: a hook that redirects the pc (interrupt
// delivery, debugger) gets a materialized state the generic engine
// continues from, identical to redirecting the interpreter at the same
// boundary.
func TestStepFusedHookRedirect(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}), // region start: redirect here
		pk(Inst{Op: MVK, Unit: S1, Dst: A(3), Src2: Imm(3)}), // skipped by the redirect
		pk(Inst{Op: HALT}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(4), Src2: Imm(4)}), // redirect target
		pk(Inst{Op: HALT}),
	}

	// Reference: interpret to the boundary, redirect, run out.
	is := NewSim(&Program{Packets: packets}, newTestMem())
	for is.PC() != 1 {
		if err := is.Step(); err != nil {
			t.Fatal(err)
		}
	}
	is.SetPC(4)
	if err := is.Run(); err != nil {
		t.Fatal(err)
	}

	fprog := &Program{Packets: packets}
	fs := NewSim(fprog, newTestMem())
	fp := mustFuse(t, fprog, FuseConfig{RegionOf: regions(len(packets), 1)})
	if err := fs.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	hook := func() (bool, error) {
		if fs.PC() == 1 {
			fs.SetPC(4)
		}
		return false, nil
	}
	for !fs.Halted() {
		if fs.FusedEntryOK() {
			if _, err := fs.StepFused(hook); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := fs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if is.Regs != fs.Regs || is.Cycle() != fs.Cycle() || is.Stats() != fs.Stats() {
		t.Fatalf("redirect divergence:\n  interp: regs=%v cycle=%d %+v\n  fused:  regs=%v cycle=%d %+v",
			is.Regs, is.Cycle(), is.Stats(), fs.Regs, fs.Cycle(), fs.Stats())
	}
	if fs.Reg(A(3)) != 0 || fs.Reg(A(4)) != 4 {
		t.Fatalf("redirect not honored: A3=%d A4=%d", fs.Reg(A(3)), fs.Reg(A(4)))
	}
}

// TestStepFusedHookError: hook errors surface with the boundary state
// materialized.
func TestStepFusedHookError(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(2), Src2: Imm(2)}), // region start
		pk(Inst{Op: HALT}),
	}
	prog := &Program{Packets: packets}
	s := NewSim(prog, newTestMem())
	fp := mustFuse(t, prog, FuseConfig{RegionOf: regions(len(packets), 1)})
	if err := s.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	wantErr := &SimError{Packet: 1, Msg: "hook failure"}
	_, err := s.StepFused(func() (bool, error) { return false, wantErr })
	if err != wantErr {
		t.Fatalf("hook error not propagated: %v", err)
	}
	if s.PC() != 1 {
		t.Fatalf("pc = %d at hook error, want the boundary packet 1", s.PC())
	}
	if s.Reg(A(1)) != 1 {
		t.Fatal("state before the boundary not applied")
	}
}

// TestStepFusedStopWithInflight: stopping at a boundary with a load in
// flight materializes the pending writeback; the generic engine commits
// it on time.
func TestStepFusedStopWithInflight(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x2A)}),
		pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(2), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(6), Src2: Imm(6)}), // region start, load in flight
		pk(Inst{Op: NOP, NopCycles: 3}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(2)), Src2: R(A(2))}),
		pk(Inst{Op: HALT}),
	}

	is := NewSim(&Program{Packets: packets}, newTestMem())
	if err := is.Run(); err != nil {
		t.Fatal(err)
	}

	fprog := &Program{Packets: packets}
	fs := NewSim(fprog, newTestMem())
	fp := mustFuse(t, fprog, FuseConfig{RegionOf: regions(len(packets), 4)})
	if err := fs.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	stopped, err := fs.StepFused(func() (bool, error) { return true, nil })
	if err != nil || !stopped {
		t.Fatalf("StepFused: stopped=%v err=%v", stopped, err)
	}
	if fs.PC() != 4 {
		t.Fatalf("pc = %d at stop, want boundary packet 4", fs.PC())
	}
	// The interpreter finishes the program from the materialized state.
	if err := fs.Run(); err != nil {
		t.Fatal(err)
	}
	if is.Regs != fs.Regs || is.Cycle() != fs.Cycle() || is.Stats() != fs.Stats() {
		t.Fatalf("inflight materialization divergence:\n  interp: regs=%v cycle=%d %+v\n  fused:  regs=%v cycle=%d %+v",
			is.Regs, is.Cycle(), is.Stats(), fs.Regs, fs.Cycle(), fs.Stats())
	}
	if fs.Reg(A(2)) != 0x2A || fs.Reg(A(3)) != 0x54 {
		t.Fatalf("load writeback lost: A2=%#x A3=%#x", fs.Reg(A(2)), fs.Reg(A(3)))
	}
}

// inflightLoopProg counts a loop down from 4 with a load in flight at
// every region start after the first pass: the loop head (4) and the
// exit (9) are entered with the LDW into A31 issued in the branch's
// last delay slot still pending, like a translated region's sync drain.
func inflightLoopProg() []Packet {
	return []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}), // 0: region start
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(0x2A)}),
		pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(5)), Src2: Imm(0)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(8), Src2: Imm(4)}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(9), Src1: R(A(9)), Src2: R(A(8))}), // 4: loop head
		pk(Inst{Op: SUB, Unit: L1, Dst: A(8), Src1: R(A(8)), Src2: Imm(1)}),
		pk(Inst{Op: BPKT, Unit: S1, Target: 4, Pred: Pred{Valid: true, Reg: A(8)}}),
		pk(Inst{Op: NOP, NopCycles: 4}),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(31), Src1: R(A(5)), Src2: Imm(0)}),  // in flight at 4 and 9
		pk(Inst{Op: ADD, Unit: L1, Dst: A(10), Src1: R(A(10)), Src2: Imm(1)}), // 9: exit
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(3), Src1: R(A(31)), Src2: R(A(31))}),
		pk(Inst{Op: HALT}),
	}
}

// runStopping drives s the way the SoC quantum loop does when every
// quantum ends at the next region boundary: fused segments whenever
// FusedEntryOK allows, a hook that stops at every boundary, generic
// steps otherwise. onStop, if set, runs after each stop.
func runStopping(t *testing.T, s *Sim, onStop func()) (stops int) {
	t.Helper()
	hook := func() (bool, error) { return true, nil }
	for steps := 0; !s.Halted(); steps++ {
		if steps > 10_000 {
			t.Fatal("runaway")
		}
		if !s.FusedEntryOK() {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		stopped, err := s.StepFused(hook)
		if err != nil {
			t.Fatal(err)
		}
		if stopped {
			stops++
			if onStop != nil {
				onStop()
			}
		}
	}
	return stops
}

// fusedSim attaches the fusion of packets under cfg to a fresh Sim.
func fusedSim(t *testing.T, cfg FuseConfig, packets []Packet) *Sim {
	t.Helper()
	prog := &Program{Packets: packets}
	s := NewSim(prog, newTestMem())
	if err := s.UseFused(mustFuse(t, prog, cfg)); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameState fails unless the two Sims agree on registers, pc, clock and
// statistics.
func sameState(t *testing.T, label string, want, got *Sim) {
	t.Helper()
	if want.Regs != got.Regs || want.Cycle() != got.Cycle() || want.Stats() != got.Stats() || want.PC() != got.PC() {
		t.Fatalf("%s: state divergence:\n  want: regs=%v cycle=%d pc=%d %+v\n  got:  regs=%v cycle=%d pc=%d %+v",
			label, want.Regs, want.Cycle(), want.PC(), want.Stats(), got.Regs, got.Cycle(), got.PC(), got.Stats())
	}
}

// TestStepFusedHookStopResume: stopping at every boundary and resuming
// is bit-identical to a pure interpreter run and never leaves fused
// code. With a load in flight at a stop, the stop materializes it into
// the pending window and fusion resumes with the value loaded back into
// its slot.
func TestStepFusedHookStopResume(t *testing.T) {
	loop := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(8), Src2: Imm(5)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(0)}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(9), Src1: R(A(9)), Src2: R(A(8))}), // loop head
		pk(Inst{Op: SUB, Unit: L1, Dst: A(8), Src1: R(A(8)), Src2: Imm(1)}),
		pk(Inst{Op: BPKT, Unit: S1, Target: 2, Pred: Pred{Valid: true, Reg: A(8)}}),
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: HALT}),
	}
	for _, tc := range []struct {
		name           string
		packets        []Packet
		starts         []int
		stops, resumes int64
	}{
		{"clean", loop, []int{0, 2}, 5, 0},
		{"inflight", inflightLoopProg(), []int{0, 4, 9}, 5, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			is := NewSim(&Program{Packets: tc.packets}, newTestMem())
			if err := is.Run(); err != nil {
				t.Fatal(err)
			}
			fs := fusedSim(t, FuseConfig{RegionOf: regions(len(tc.packets), tc.starts...)}, tc.packets)
			stops := runStopping(t, fs, nil)
			sameState(t, "after hook stops", is, fs)
			if ec := fs.EngineCounters(); int64(stops) != tc.stops || ec.Resumes != tc.resumes || ec.GenericPackets != 0 {
				t.Fatalf("%d stops, %+v: want %d stops, %d resumes, no generic packets", stops, ec, tc.stops, tc.resumes)
			}
		})
	}
}

// TestFusedResumeFactsGuard: two call sites enter the region at 12 with
// the same load in flight but different return addresses MVKed into the
// tracked B3, so two boundary segments there share the entry window and
// differ only in the constant their BREG was resolved with. A stop at 12
// on either call must resume in the segment whose constant B3 holds;
// whichever of the two the index lists first is wrong for one call.
func TestFusedResumeFactsGuard(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(5), Src2: Imm(0x100)}), // 0: region start
		pk(Inst{Op: MVK, Unit: S2, Dst: B(3), Src2: Imm(6)}),     // return to 6
		pk(Inst{Op: BPKT, Unit: S1, Target: 12}),
		pk(Inst{Op: NOP, NopCycles: 4}),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(31), Src1: R(A(5)), Src2: Imm(0)}), // in flight at 12
		pk(Inst{Op: HALT}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(10), Src1: R(A(10)), Src2: Imm(1)}), // 6: first return site
		pk(Inst{Op: MVK, Unit: S2, Dst: B(3), Src2: Imm(14)}),                 // return to 14
		pk(Inst{Op: BPKT, Unit: S1, Target: 12}),
		pk(Inst{Op: NOP, NopCycles: 4}),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(31), Src1: R(A(5)), Src2: Imm(0)}), // in flight at 12
		pk(Inst{Op: HALT}),
		pk(Inst{Op: BREG, Unit: S2, Src1: R(B(3))}), // 12: callee, returns through B3
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: ADD, Unit: L1, Dst: A(11), Src1: R(A(11)), Src2: Imm(1)}), // 14: second return site
		pk(Inst{Op: HALT}),
	}
	cfg := FuseConfig{RegionOf: regions(len(packets), 0, 6, 12, 14), ConstRegs: []Reg{B(3)}}
	fp := mustFuse(t, &Program{Packets: packets}, cfg)
	if n := len(fp.resume); n != 2 || fp.resume[0].pkt != 12 || fp.resume[1].pkt != 12 {
		t.Fatalf("resume index %+v: want two entries at packet 12", fp.resume)
	}

	is := NewSim(&Program{Packets: packets}, newTestMem())
	if err := is.Run(); err != nil {
		t.Fatal(err)
	}
	fs := fusedSim(t, cfg, packets)
	runStopping(t, fs, nil)
	sameState(t, "facts guard", is, fs)
	if fs.Reg(A(10)) != 1 || fs.Reg(A(11)) != 1 {
		t.Fatalf("A10=%d A11=%d: each return site must run once", fs.Reg(A(10)), fs.Reg(A(11)))
	}
	if ec := fs.EngineCounters(); ec.Resumes != 2 || ec.GenericPackets != 0 {
		t.Fatalf("%+v: want 2 resumes and no generic packets", ec)
	}
}

// TestFusedResumeRollback: the parallel SoC scheduler's pattern at a stop
// with a load in flight — checkpoint, speculate through a resume to the
// next stop, roll back, resume again. The rollback must restore the
// stopped state byte-exactly (pending window included), and the
// re-execution must reproduce the speculation. Memory is not part of
// the CPU checkpoint; the program stores only before the first stop.
func TestFusedResumeRollback(t *testing.T) {
	packets := inflightLoopProg()
	is := NewSim(&Program{Packets: packets}, newTestMem())
	if err := is.Run(); err != nil {
		t.Fatal(err)
	}
	fs := fusedSim(t, FuseConfig{RegionOf: regions(len(packets), 0, 4, 9)}, packets)
	snap := func() checkpoint {
		return checkpoint{
			regs: fs.Regs, pc: fs.pc, cycle: fs.cycle, busy: fs.busy, halted: fs.halted,
			pending: append([]writeback(nil), fs.pending...),
			brValid: fs.brValid, brTgt: fs.brTgt, brCnt: fs.brCnt, stats: fs.stats,
		}
	}
	speculate := func() checkpoint {
		if !fs.FusedEntryOK() {
			t.Fatalf("pc %d pending %v: no fused entry at a stop", fs.pc, fs.pending)
		}
		if _, err := fs.StepFused(func() (bool, error) { return true, nil }); err != nil {
			t.Fatal(err)
		}
		return snap()
	}
	// At each stop with a load in flight: checkpoint, speculate to the
	// next stop, roll back. runStopping then re-executes, and the next
	// stop must match the speculation.
	var want *checkpoint
	rollbacks := 0
	runStopping(t, fs, func() {
		if want != nil {
			if got := snap(); !reflect.DeepEqual(*want, got) {
				t.Fatalf("re-execution diverged from the speculation:\n  spec: %+v\n  got:  %+v", *want, got)
			}
			want = nil
		}
		if len(fs.pending) == 0 {
			return
		}
		rollbacks++
		before := snap()
		fs.Checkpoint()
		spec := speculate()
		fs.Rollback()
		if after := snap(); !reflect.DeepEqual(before, after) {
			t.Fatalf("rollback at pc %d not exact:\n  before: %+v\n  after:  %+v", before.pc, before, after)
		}
		want = &spec
	})
	if want != nil && !reflect.DeepEqual(*want, snap()) {
		t.Fatalf("re-execution to the halt diverged from the speculation:\n  spec: %+v\n  got:  %+v", *want, snap())
	}
	sameState(t, "rollback", is, fs)
	if rollbacks != 4 {
		t.Fatalf("%d stops with a load in flight, want 4", rollbacks)
	}
	if ec := fs.EngineCounters(); ec.GenericPackets != 0 {
		t.Fatalf("%+v: want no generic packets", ec)
	}
}

// TestRunFusedCycleLimit: the fused engine honors MaxCycles at region
// boundaries. The overshoot is bounded by one region, so only the error
// kind is asserted, not its exact packet/cycle.
func TestRunFusedCycleLimit(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: BPKT, Unit: S1, Target: 0}), // endless loop
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: HALT}),
	}
	prog := &Program{Packets: packets}
	s := NewSim(prog, newTestMem())
	s.MaxCycles = 1000
	fp := mustFuse(t, prog, FuseConfig{RegionOf: regions(len(packets), 0)})
	if err := s.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	err := s.RunFused()
	if err == nil || !strings.Contains(err.Error(), "cycle limit exceeded") {
		t.Fatalf("want cycle limit error, got %v", err)
	}
}

// TestFusedNoEnterSegment: a region start that deoptimizes immediately
// (a predicated BREG through an untracked register) is excluded from the
// entry map so RunFused cannot livelock re-entering a zero-progress
// segment.
func TestFusedNoEnterSegment(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(7), Src2: Imm(4)}),
		pk(Inst{Op: BREG, Unit: S1, Src1: R(A(7)), Pred: Pred{Valid: true, Reg: A(7)}}), // region start; A7 untracked
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(9), Src2: Imm(9)}), // skipped
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(1)}), // BREG target
		pk(Inst{Op: HALT}),
	}
	prog := &Program{Packets: packets}
	fp := mustFuse(t, prog, FuseConfig{RegionOf: regions(len(packets), 0, 1)})
	s := NewSim(prog, newTestMem())
	if err := s.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	s.SetPC(1)
	if s.FusedEntryOK() {
		t.Fatal("zero-progress segment advertised as a fused entry")
	}
	s.SetPC(0)
	if !s.FusedEntryOK() {
		t.Fatal("program entry not a fused entry")
	}
	if err := s.RunFused(); err != nil {
		t.Fatal(err)
	}
	if !s.Halted() || s.Reg(A(1)) != 1 {
		t.Fatalf("halted=%v A1=%d", s.Halted(), s.Reg(A(1)))
	}
	runTriple(t, FuseConfig{RegionOf: regions(len(packets), 0, 1)}, packets...)
}

func TestFuseRejectsIssueViolations(t *testing.T) {
	prog := &Program{Packets: []Packet{
		pk(Inst{Op: HALT}),
		pk( // unit conflict
			Inst{Op: ADD, Unit: L1, Dst: A(1), Src1: R(A(2)), Src2: R(A(3))},
			Inst{Op: SUB, Unit: L1, Dst: A(4), Src1: R(A(5)), Src2: R(A(6))},
		),
	}}
	if _, err := Fuse(prog, FuseConfig{}); err == nil {
		t.Fatal("fuse accepted a unit conflict")
	} else if se, ok := err.(*SimError); !ok || se.Packet != 1 {
		t.Fatalf("want SimError at packet 1, got %v", err)
	}
}

func TestUseFusedRejectsForeignProgram(t *testing.T) {
	a := &Program{Packets: []Packet{pk(Inst{Op: HALT})}}
	b := &Program{Packets: []Packet{pk(Inst{Op: HALT})}}
	fp, err := Fuse(a, FuseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := NewSim(b, newTestMem()).UseFused(fp); err == nil {
		t.Fatal("attached a fused program to a different program's sim")
	}
}

func TestFuseCachedSharesFusion(t *testing.T) {
	prog := &Program{Packets: []Packet{pk(Inst{Op: HALT})}}
	f1, err := FuseCached(prog, FuseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := FuseCached(prog, FuseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("FuseCached refused the same program")
	}
}

// TestFusedMatchesInterpreterRandom: the engine-differential property
// test, with region starts sprinkled at random strides — segmentation
// must never change semantics.
func TestFusedMatchesInterpreterRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		packets := genLegalProgram(r)
		stride := 2 + r.Intn(6)
		var starts []int
		for i := 0; i < len(packets); i += stride {
			starts = append(starts, i)
		}
		is, _ := runTriple(t, FuseConfig{RegionOf: regions(len(packets), starts...)}, packets...)
		return is.Halted()
	}
	cfg := &quick.Config{MaxCount: 120}
	if testing.Short() {
		cfg.MaxCount = 20
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFusedSteadyStateAllocs: steady-state fused execution performs zero
// heap allocations, including the boundary-hook path.
func TestFusedSteadyStateAllocs(t *testing.T) {
	packets := []Packet{
		pk(Inst{Op: MVK, Unit: S1, Dst: A(10), Src2: Imm(0x200)}),
		pk(Inst{Op: MVK, Unit: S1, Dst: A(1), Src2: Imm(3)}),
		// loop (packet 2 = region start):
		pk(Inst{Op: MPY, Unit: M1, Dst: A(2), Src1: R(A(1)), Src2: R(A(1))}),
		pk(Inst{Op: STW, Unit: D1, Data: A(1), Src1: R(A(10)), Src2: Imm(0)}),
		pk(Inst{Op: LDW, Unit: D1, Dst: A(3), Src1: R(A(10)), Src2: Imm(0)}),
		pk(Inst{Op: BPKT, Unit: S1, Target: 2}),
		pk(Inst{Op: NOP, NopCycles: 5}),
		pk(Inst{Op: HALT}), // never reached
	}
	prog := &Program{Packets: packets}
	fp, err := Fuse(prog, FuseConfig{RegionOf: regions(len(packets), 2)})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(prog, newAllocFreeMem())
	s.MaxCycles = 1 << 50
	if err := s.UseFused(fp); err != nil {
		t.Fatal(err)
	}
	n := 0
	hook := func() (bool, error) { n++; return n%16 == 0, nil }
	run := func() {
		if _, err := s.StepFused(hook); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm
	allocs := testing.AllocsPerRun(100, run)
	if allocs != 0 {
		t.Fatalf("steady-state fused execution allocates: %.1f allocs per 16 iterations", allocs)
	}
}
