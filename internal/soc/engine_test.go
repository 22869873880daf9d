package soc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TestEngineEquivalence runs every multi-core workload on the fused,
// unfused and interpreted C6x engines — every detail level,
// all-translated and mixed translated/ISS, cycle lockstep and a large
// quantum — and requires bit-identical SoC results, including per-core
// CPI, cycles, bus traffic and output.
func TestEngineEquivalence(t *testing.T) {
	for _, mw := range workload.MCAll(4) {
		for _, quantum := range []int64{1, 64} {
			for _, mixed := range []bool{false, true} {
				useISS := []bool{false}
				label := "translated"
				if mixed {
					useISS = []bool{false, true}
					label = "mixed"
				}
				t.Run(fmt.Sprintf("%s/q%d/%s", mw.Name, quantum, label), func(t *testing.T) {
					for _, level := range []core.Level{core.Level0, core.Level1, core.Level2, core.Level3} {
						t.Run(fmt.Sprintf("L%d", int(level)), func(t *testing.T) {
							engineEquivalence(t, mw, quantum, useISS, core.Options{Level: level})
						})
					}
				})
			}
		}
	}
}

// engineEquivalence runs one SoC cell on every engine and requires
// identical results.
func engineEquivalence(t *testing.T, mw workload.MultiWorkload, quantum int64, useISS []bool, opts core.Options) {
	t.Helper()
	engines := []platform.Engine{platform.EngineCompiled, platform.EngineCompiledNoFuse, platform.EngineInterp}
	results := make([]Stats, len(engines))
	for i, engine := range engines {
		cfg := buildConfig(t, mw, quantum, useISS, opts)
		cfg.Engine = engine
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		verifyOutputs(t, mw, s, engine.String())
		results[i] = s.Results()
	}
	for i := 1; i < len(engines); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("engine divergence:\n  %v: %+v\n  %v: %+v",
				engines[0], results[0], engines[i], results[i])
		}
	}
}

// TestFusedCoverage pins how much of a multi-core run the fused engine
// covers: over every multi-core workload × quanta {16, 64, 256}, fewer
// than 1% of the translated cores' packets may run in the generic
// engines at each level. A quantum stop leaves the sync-drain load in
// flight, so this fails unless fused execution resumes with writebacks
// pending. The parallel scheduler (checkpoint, speculate, roll back) is
// covered at one quantum.
func TestFusedCoverage(t *testing.T) {
	type run struct {
		quantum  int64
		parallel bool
	}
	runs := []run{{16, false}, {64, false}, {256, false}, {64, true}}
	for _, level := range []core.Level{core.Level1, core.Level2, core.Level3} {
		var generic, packets int64
		for _, mw := range workload.MCAll(4) {
			for _, r := range runs {
				cfg := buildConfig(t, mw, r.quantum, []bool{false}, core.Options{Level: level})
				cfg.Parallel = r.parallel
				s := mustRun(t, cfg, fmt.Sprintf("%s/L%d/q%d", mw.Name, int(level), r.quantum))
				verifyOutputs(t, mw, s, mw.Name)
				for _, c := range s.cores {
					generic += c.plat.CPU.EngineCounters().GenericPackets
					packets += c.plat.CPU.Stats().Packets
				}
			}
		}
		share := 100 * float64(generic) / float64(packets)
		t.Logf("L%d: %d of %d packets generic (%.2f%%)", int(level), generic, packets, share)
		if share >= 1 {
			t.Errorf("L%d: %.2f%% of packets ran outside fused segments, want < 1%%", int(level), share)
		}
	}
}
