package main

import "time"

// Host speed calibration.
//
// On a shared host the speed available to the benchmark changes by up to
// 1.5x in phases of a second or two (neighbours on the same cores), with
// no steal time to show for it. The median latency of a run then depends
// on how much of the run fell into slow phases. To cancel that, a fixed
// kernel owned by the benchmark, a closure-dispatch loop over a small
// register machine shaped like the fused C6x engine, is timed throughout
// the run, and the host time of each CPU-bound batch is scaled by
// calibRefMS / (kernel time measured next to it). Tracking measured on a
// 2-CPU host: batch latency moved 1.56x between phases while the scaled
// latency moved by under 1.15x and not with the phase.
//
// The kernel is part of the benchmark and must not change: a change to
// the program under test cannot move it.

// calibRefMS is the nominal kernel time the scaled times refer to: about
// the kernel's time on a quiet 2-CPU x86-64 host, so scaled times read
// close to that host's raw times.
const calibRefMS = 2.0

// calibEvery is the least host time between two kernel runs; it is
// well below the length of a speed phase.
const calibEvery = 50 * time.Millisecond

// calibWindow is how many recent kernel times a scale factor is the
// median of.
const calibWindow = 3

// hostSpeed times the calibration kernel and turns its recent timings
// into a scale factor. A nil hostSpeed scales by 1.
type hostSpeed struct {
	kernel func() uint32
	last   time.Time
	recent []float64
	sink   uint32
}

// newHostSpeed builds the kernel and fills the window, so the first
// scale already is a median of calibWindow timings.
func newHostSpeed() *hostSpeed {
	h := &hostSpeed{kernel: calibKernel()}
	for i := 0; i < calibWindow; i++ {
		h.last = time.Time{}
		h.calibrate()
	}
	return h
}

// calibrate runs the kernel if calibEvery has passed since the last run.
func (h *hostSpeed) calibrate() {
	if h == nil || time.Since(h.last) < calibEvery {
		return
	}
	start := time.Now()
	h.sink += h.kernel()
	h.last = time.Now()
	h.recent = append(h.recent, float64(h.last.Sub(start))/1e6)
	if len(h.recent) > calibWindow {
		h.recent = h.recent[1:]
	}
}

// scale is calibRefMS over the median of the recent kernel times.
func (h *hostSpeed) scale() float64 {
	if h == nil || len(h.recent) == 0 {
		return 1
	}
	return calibRefMS / median(h.recent)
}

// calibKernel builds the kernel: a fixed program of 256 closures over 16
// registers and a 128 KiB memory (adds, loads, stores, xors and
// data-dependent branches) dispatched through a slice of funcs, as the
// fused engine dispatches. Each call runs 300,000 steps.
func calibKernel() func() uint32 {
	const memWords = 1 << 15
	var regs [16]uint32
	mem := make([]uint32, memWords)
	pc := 0
	ops := make([]func(), 0, 256)
	x := uint32(7)
	for i := 0; i < cap(ops); i++ {
		x = x*1664525 + 1013904223
		a, b, c, imm := int(x>>4)&15, int(x>>8)&15, int(x>>12)&15, x>>20
		switch x % 5 {
		case 0:
			ops = append(ops, func() { regs[a] = regs[b] + regs[c] + imm; pc++ })
		case 1:
			ops = append(ops, func() { regs[a] = mem[(regs[b]+imm)&(memWords-1)]; pc++ })
		case 2:
			ops = append(ops, func() { mem[(regs[b]^imm)&(memWords-1)] = regs[c]; pc++ })
		case 3:
			ops = append(ops, func() {
				if regs[b]&1 == 0 {
					pc += 2
				} else {
					pc++
				}
			})
		default:
			ops = append(ops, func() { regs[a] ^= regs[b]<<3 | regs[c]>>2; pc++ })
		}
	}
	return func() uint32 {
		for step := 0; step < 300_000; step++ {
			ops[pc%len(ops)]()
		}
		return regs[3]
	}
}
