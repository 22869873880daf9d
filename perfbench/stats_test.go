package main

import (
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), tc.in...)
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.in[i] {
				t.Fatalf("median reordered its input: %v", tc.in)
			}
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted order
	}
	tl := tailOf(xs)
	if tl.Value != 190 || tl.Samples != 200 || tl.Beyond != 10 || tl.Percentile != 95 {
		t.Fatalf("tailOf(1..200) = %+v, want 190 at p95 with 10 beyond", tl)
	}
	beyond := 0
	for _, x := range xs {
		if x > tl.Value {
			beyond++
		}
	}
	if beyond != tailMin {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailMin)
	}

	// 11 samples: the lowest one is the only value with 10 above it.
	small := []float64{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if tl := tailOf(small); tl.Value != 1 || tl.Percentile != 9 {
		t.Fatalf("tailOf(11 samples) = %+v, want 1 at p9", tl)
	}
}

func TestTailFallsBackToMedianBelowElevenSamples(t *testing.T) {
	tl := tailOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if tl.Value != 5.5 || tl.Percentile != 50 || tl.Samples != 10 {
		t.Fatalf("tailOf(10 samples) = %+v, want the median labelled p50", tl)
	}
}

func TestTallyCountsFailuresAgainstAttempts(t *testing.T) {
	var tl tally
	if tl.frac() != 0 {
		t.Fatal("empty tally should have failed fraction 0")
	}
	for i := 0; i < 8; i++ {
		tl.add(i%4 != 0)
	}
	if tl.Attempted != 8 || tl.Failed != 2 || tl.frac() != 0.25 {
		t.Fatalf("tally = %+v frac %v, want 2 of 8 failed", tl, tl.frac())
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.batch", Start: 0, End: 100},
		// Overlapping children: their union [10, 60) covers 50.
		{ID: 2, Parent: 1, Name: "platform.run", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "platform.new", Start: 30, End: 60},
		// Child running past its parent counts only inside the parent.
		{ID: 4, Parent: 1, Name: "iss.ref", Start: 90, End: 120},
		// Grandchild: covers part of span 2 only.
		{ID: 5, Parent: 2, Name: "c6x.step", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":    100 - 50 - 10,
		"platform": (30 - 10) + 30,
		"iss":      30,
		"c6x":      10,
	}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], d)
		}
	}
	if len(self) != len(want) {
		t.Errorf("self has layers %v, want %v", sortedKeys(self), sortedKeys(want))
	}
}

func TestLoopMetricsUseUntracedBatchesOnly(t *testing.T) {
	samples := []batchSample{
		{ms: 10, ops: 2, insts: 1000},
		{ms: 1000, ops: 2, insts: 1000, traced: true},
		{ms: 30, ops: 2, insts: 3000},
		{ms: 20, ops: 2, insts: 2000},
	}
	res := newOutcome()
	loopMetrics(res, samples, 1)
	if res.e2e["emu_mips"] != 0.1 {
		t.Errorf("grouped emu_mips = %v, want 0.1 (1000 inst per 10 ms)", res.e2e["emu_mips"])
	}
	res = newOutcome()
	loopMetrics(res, samples, 0)
	if res.e2e["batch_p50_ms"] != 20 {
		t.Errorf("batch_p50_ms = %v, want 20", res.e2e["batch_p50_ms"])
	}
	// One key: its cost is the median latency, 20 ms, for the work of
	// its first batch, 1000 instructions.
	if res.e2e["emu_mips"] != 0.05 {
		t.Errorf("keyed emu_mips = %v, want 0.05 (1000 inst per 20 ms)", res.e2e["emu_mips"])
	}
	if got := traceOverhead(samples); got != 100*(1000.0/20-1) {
		t.Errorf("traceOverhead = %v", got)
	}
}

func TestHostSpeedScale(t *testing.T) {
	var none *hostSpeed
	none.calibrate()
	if none.scale() != 1 {
		t.Fatal("a nil hostSpeed must leave times as measured")
	}
	h := newHostSpeed()
	if len(h.recent) != calibWindow {
		t.Fatalf("new hostSpeed holds %d timings, want a full window of %d", len(h.recent), calibWindow)
	}
	h.recent = []float64{4, 1, 2}
	if got := h.scale(); got != calibRefMS/2 {
		t.Fatalf("scale = %v, want calibRefMS over the median timing", got)
	}
}
