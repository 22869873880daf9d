package c6x

import (
	"fmt"
	"sync"
)

// This file is the fused engine's runtime: entry detection, the segment
// dispatch loop, and the boundary-hook protocol the platform uses to
// keep interrupt delivery, tracing and clock limits bit-identical to
// the generic engines while steady-state loops stay inside fused code.

// FusedHook is the per-boundary callback of StepFused. It runs with the
// architectural state observable exactly as the generic engines present
// it at a region boundary: pc at the boundary packet, cycle/busy/stats
// synchronized, the register file committed, and any pending branch
// restored. In-flight writebacks are held in fused slots; they are
// flushed into the ordinary pending window automatically when the hook
// stops execution, returns an error, or redirects the pc (SetPC), so
// the caller always gets back a state the interpreter can continue
// from. Returning stop=true ends StepFused with that state.
type FusedHook func() (stop bool, err error)

// UseFused attaches a fused program. The Sim keeps executing through
// Step/Run as before; fused execution only engages through
// RunFused/StepFused at compiled entries (see FusedEntryOK).
func (s *Sim) UseFused(fp *FusedProgram) error {
	if fp == nil || fp.prog != s.prog {
		return fmt.Errorf("c6x: fused program does not match the simulator's program")
	}
	s.fused = fp
	if cap(s.pending) < 32 {
		p := make([]writeback, len(s.pending), 32)
		copy(p, s.pending)
		s.pending = p
	}
	return nil
}

// Fused reports whether a fused program is attached.
func (s *Sim) Fused() bool { return s.fused != nil }

// FusedEntryOK reports whether fused execution can engage at the
// current state: no pending branch, at a compiled re-entry point. With
// nothing in flight that is the packet's clean entry segment. A hook stop
// or a deopt leaves in-flight writebacks in the pending window; fusion
// then resumes at a region start whose boundary segment was compiled
// with exactly that window and under constants the register file still
// holds. Mid-region the generic engine carries the state to the next
// boundary.
func (s *Sim) FusedEntryOK() bool { return s.fusedEntry() >= 0 }

// fusedEntry is the entry lookup FusedEntryOK and StepFused share: the
// segment fused execution enters at the current state, or -1.
func (s *Sim) fusedEntry() int32 {
	if s.fused == nil || s.halted || s.brValid {
		return -1
	}
	si := s.fused.entryAt(s.pc)
	if si < 0 || len(s.pending) == 0 {
		return si
	}
	return s.fused.resumeAt(s)
}

// StepFused runs fused segments from the current state (the caller must
// have checked FusedEntryOK) until the program halts, an op errors, the
// hook stops or redirects execution, or a segment deoptimizes back to
// the generic engines. The hook fires at every region-boundary segment
// except the first (the caller enters StepFused having just performed
// its own boundary actions there), and at a region start a run-time
// branch exits onto. With a nil hook the engine checks MaxCycles itself
// at those points, producing the interpreter-flavored limit error.
//
// On return the architectural state is always one the generic engines
// can continue from bit-identically; stopped reports that the hook
// ended the run (as opposed to a deopt, redirect or halt).
func (s *Sim) StepFused(hook FusedHook) (stopped bool, err error) {
	fp := s.fused
	si := s.fusedEntry()
	if si < 0 {
		return false, fmt.Errorf("c6x: StepFused at pc %d: not a fused entry", s.pc)
	}
	if len(s.pending) != 0 {
		s.matchWindow(fp.segs[si].entryFlush, true)
		s.eng.Resumes++
	}
	s.fusedActive = true
	defer func() { s.fusedActive = false }()
	first := true
	for {
		seg := fp.segs[si]
		if pkt := int(seg.pkt); seg.boundary && !first {
			if hook == nil {
				if s.cycle > s.MaxCycles {
					s.pc = pkt
					seg.entryBr.restore(s)
					materialize(s, seg.entryFlush)
					return false, s.errf(pkt, "cycle limit exceeded")
				}
			} else {
				s.pc = pkt
				seg.entryBr.restore(s)
				stop, err := hook()
				if err != nil || stop {
					materialize(s, seg.entryFlush)
					return stop, err
				}
				if s.pc != pkt || s.halted {
					// Redirected (interrupt delivery, debugger): hand the
					// materialized state back; the caller re-dispatches.
					materialize(s, seg.entryFlush)
					return false, nil
				}
				if seg.entryBr.valid {
					s.brValid = false // back under static tracking
				}
			}
		}
		first = false
		s.fnext = fnextExit
		for _, op := range seg.ops {
			if err := op(s); err != nil {
				return false, err
			}
		}
		if s.fnext == fnextLanded {
			return s.landBoundary(hook)
		}
		if s.fnext < 0 {
			// Terminal materialized the state (deopt or halt).
			return false, nil
		}
		si = s.fnext
	}
}

// landBoundary performs, for a terminal that exited onto a region start
// (fnextLanded), the boundary actions the generic loop performs after
// its landing step: the hook, or the cycle limit without one. Skipping
// them would let the caller re-enter fused code at that region start as
// if they had run. The state is already materialized, so execution
// leaves StepFused whatever the hook does.
func (s *Sim) landBoundary(hook FusedHook) (bool, error) {
	if hook != nil {
		return hook()
	}
	if s.cycle > s.MaxCycles {
		return false, s.errf(s.pc, "cycle limit exceeded")
	}
	return false, nil
}

// RunFused executes until HALT or error, preferring fused segments and
// falling back to generic steps between a deopt and the next compiled
// entry. Semantically identical to Run.
func (s *Sim) RunFused() error {
	for !s.halted {
		if s.cycle > s.MaxCycles {
			return s.errf(s.pc, "cycle limit exceeded")
		}
		if s.FusedEntryOK() {
			if _, err := s.StepFused(nil); err != nil {
				return err
			}
			continue
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// fuseOnce memoizes one program's fusion.
type fuseOnce struct {
	once sync.Once
	fp   *FusedProgram
	err  error
}

// fuseCache memoizes Fuse per *Program identity (see compileCache for
// why pointer keys are safe here).
var fuseCache sync.Map // *Program -> *fuseOnce

// FuseCached returns the memoized fusion of prog. The caller must
// derive cfg deterministically from prog (the platform does): the first
// caller's cfg wins for everyone sharing the program.
func FuseCached(prog *Program, cfg FuseConfig) (*FusedProgram, error) {
	v, _ := fuseCache.LoadOrStore(prog, &fuseOnce{})
	e := v.(*fuseOnce)
	e.once.Do(func() { e.fp, e.err = Fuse(prog, cfg) })
	return e.fp, e.err
}
