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
