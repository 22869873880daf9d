package main

import (
	"reflect"
	"testing"

	"repro/internal/platform"
	"repro/internal/soc"
)

// TestEngineHotCountsRepeatAcrossSetups checks that two independent
// set-ups of one seed give bit-identical simulated counts: the property
// that lets the benchmark treat them as exact instead of noisy.
func TestEngineHotCountsRepeatAcrossSetups(t *testing.T) {
	counts := func() []platform.Stats {
		runs, err := hotSetup(5, nil, 0, newOutcome())
		if err != nil {
			t.Fatal(err)
		}
		var out []platform.Stats
		for _, r := range runs {
			sys := platform.New(r.prog)
			if err := sys.Run(); err != nil {
				t.Fatalf("%s L%d: %v", r.w.Name, int(r.level), err)
			}
			out = append(out, sys.Stats())
		}
		return out
	}
	if a, b := counts(), counts(); !reflect.DeepEqual(a, b) {
		t.Fatal("simulated counts differ between two set-ups of seed 5")
	}
}

// TestSoCCountsRepeatAcrossSchedulers checks a few drawn SoCs: the
// sequential and the parallel scheduler, each set up twice, must agree
// on every simulated count and output.
func TestSoCCountsRepeatAcrossSchedulers(t *testing.T) {
	if testing.Short() {
		t.Skip("translates every soc-mix program")
	}
	a, err := socSetup(5, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := socSetup(5, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		var want *soc.Stats
		for _, c := range []*socCase{a[i], b[i]} {
			for _, parallel := range []bool{false, true} {
				s, err := soc.New(c.config(parallel, false))
				if err == nil {
					err = s.Run()
				}
				if err == nil {
					err = checkSoC(c, s)
				}
				if err != nil {
					t.Fatalf("%s parallel=%v: %v", c.name(), parallel, err)
				}
				st := s.Results()
				if want == nil {
					want = &st
				} else if !reflect.DeepEqual(st, *want) {
					t.Fatalf("%s parallel=%v: counts differ from the first run", c.name(), parallel)
				}
			}
		}
	}
}
