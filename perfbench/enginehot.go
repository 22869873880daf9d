package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/iss"
	"repro/internal/march"
	"repro/internal/platform"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// hotSetups is how many times engine-hot repeats its set-up; setup_s is
// the median.
const hotSetups = 5

// hotRun is one translation of the engine-hot matrix: a program at
// Level0-2 (whose translation no I-cache geometry affects) or at Level3
// under one of the seed's geometries.
type hotRun struct {
	w       workload.Workload
	level   core.Level
	prog    *core.Program
	retired int64 // reference ISS instructions: the emu_mips numerator
	// refCyc holds the reference ISS cycles this run's generated cycles
	// are compared with: one per geometry below Level3, the run's own
	// geometry at Level3.
	refCyc   []int64
	baseline *platform.Stats
}

// hotSetup assembles each program of workload.All(), runs the reference
// ISS under each of the seed's I-cache geometries, translates it at
// Level0-2 once and at Level3 once per geometry, and builds the first
// platform.System of each translation, which compiles and fuses it.
// Set-up repetition rep records its spans under batch -(rep+1).
func hotSetup(seed uint64, tr *tracer, rep int, res *outcome) ([]*hotRun, error) {
	batch := -int64(rep + 1)
	geoms := drawGeometries(seed)
	var runs []*hotRun
	translate := func(w workload.Workload, f *elf32.File, opts core.Options) (*core.Program, error) {
		sp := tr.begin("core.translate", 0, batch, 0)
		prog, err := core.Translate(f, opts)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s L%d %+v: %w", w.Name, int(opts.Level), opts.Desc.ICache, err)
		}
		sp = tr.begin("c6x.compile_fuse", 0, batch, 0)
		platform.New(prog)
		tr.end(sp)
		return prog, nil
	}
	for _, w := range workload.All() {
		sp := tr.begin("tc32asm.assemble", 0, batch, 0)
		f, err := tc32asm.Assemble(w.Source)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		var retired int64
		refs := make([]int64, len(geoms))
		for gi, g := range geoms {
			sp = tr.begin("iss.ref", 0, batch, 0)
			ref, err := iss.New(f, iss.Config{Desc: descFor(g), CycleAccurate: true})
			if err == nil {
				err = ref.Run()
			}
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s %+v: reference: %w", w.Name, g, err)
			}
			res.check(checkOutput(w.Name+" reference", ref.Output(), w.Expected))
			retired, refs[gi] = ref.Stats().Retired, ref.Stats().Cycles
		}
		for l := core.Level0; l <= core.Level2; l++ {
			prog, err := translate(w, f, core.Options{Level: l, Desc: march.Default()})
			if err != nil {
				return nil, err
			}
			runs = append(runs, &hotRun{w: w, level: l, prog: prog, retired: retired, refCyc: refs})
		}
		for gi, g := range geoms {
			prog, err := translate(w, f, core.Options{Level: core.Level3, Desc: descFor(g)})
			if err != nil {
				return nil, err
			}
			runs = append(runs, &hotRun{w: w, level: core.Level3, prog: prog, retired: retired, refCyc: refs[gi : gi+1]})
		}
	}
	return runs, nil
}

func checkOutput(what string, got, want []uint32) error {
	if err := workload.SameOutput(got, want); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// runEngineHot: each round runs every translation of the matrix once on
// a fresh platform.System, in a seeded order per round; translation and
// compilation stay in set-up.
func runEngineHot(o options, tr *tracer) (*outcome, error) {
	res := newOutcome()
	hs := newHostSpeed()
	tr.setOn(true)
	runs, setupS, err := medianSetup(hotSetups, hs, func(rep int) ([]*hotRun, error) {
		return hotSetup(o.seed, tr, rep, res)
	}, nil)
	tr.setOn(false)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS

	orders := newOrderStream(o.seed)
	before := readMem()
	samples, err := closedLoop(o.seconds, tr, hs, func(id int64) (batchSample, error) {
		root := tr.begin("bench.batch", 0, id, 0)
		start := time.Now()
		var insts int64
		for _, i := range orders.next(len(runs)) {
			r := runs[i]
			sp := tr.begin("platform.new", root.id, id, 0)
			sys := platform.New(r.prog)
			tr.end(sp)
			sp = tr.begin("platform.run", root.id, id, 0)
			err := sys.Run()
			tr.end(sp)
			if err == nil {
				err = workload.SameOutput(sys.Output, r.w.Expected)
			}
			if err != nil {
				res.fail("%s L%d: %v", r.w.Name, int(r.level), err)
				continue
			}
			st := sys.Stats()
			if r.baseline == nil {
				r.baseline = &st
			} else if st != *r.baseline {
				res.fail("%s L%d: simulated counts changed between repetitions: %+v vs %+v", r.w.Name, int(r.level), st, *r.baseline)
				continue
			}
			res.add(true)
			insts += r.retired
		}
		ms := float64(time.Since(start)) / 1e6
		tr.end(root)
		return batchSample{ms: ms, ops: len(runs), insts: insts}, nil
	})
	after := readMem()
	if err != nil {
		return nil, err
	}
	loopMetrics(res, samples, 0)
	res.scale = medianScale(samples)
	res.e2e["mem_peak_mb"] = peakRSSMiB()

	var c6x, src, packets, regions, stall, gen float64
	var dev []float64
	for _, r := range runs {
		if r.baseline == nil {
			continue
		}
		b := r.baseline
		c6x += float64(b.C6xCycles)
		src += float64(r.retired)
		packets += float64(b.Packets)
		regions += float64(b.Regions)
		stall += float64(b.StallCycles)
		gen += float64(b.GeneratedCycles)
		if r.level >= core.Level1 {
			for _, ref := range r.refCyc {
				dev = append(dev, 100*math.Abs(float64(b.GeneratedCycles-ref))/float64(ref))
			}
		}
	}
	res.e2e["vliw_cpi"] = ratio(c6x, src)
	res.e2e["cycle_dev_pct"] = mean(dev)

	if tr != nil {
		res.spans = tr.snapshot()
		setupLayers(res, hotPackets(runs))
		traced := tracedBatches(samples)
		res.layers["platform.new_s"] = medianBatchSeconds(spanSums(res.spans, "platform.new"), traced)
		res.layers["platform.run_s"] = medianBatchSeconds(spanSums(res.spans, "platform.run"), traced)
		res.layers["platform.packets"] = packets
		res.layers["platform.ns_per_packet"] = ratio(res.layers["platform.run_s"]*1e9, packets)
		res.layers["platform.regions"] = regions
		res.layers["platform.stall_cycles"] = stall
		res.layers["platform.c6x_cycles"] = c6x
		res.layers["platform.generated_cycles"] = gen
		res.layers["iss.ref_s"] = medianBatchSeconds(spanSums(res.spans, "iss.ref"), setupBatches(hotSetups))
		var retired float64
		for _, r := range runs {
			if r.level == core.Level0 {
				retired += float64(r.retired * int64(len(r.refCyc)))
			}
		}
		res.layers["iss.retired"] = retired
		runtimeLayers(res, before, after, samples)
	}
	return res, nil
}

// setupLayers fills the set-up layer metrics (assembly, translation,
// compile and fuse) from the set-up spans, and the static packet count
// of the translations in use.
func setupLayers(res *outcome, staticPackets int) {
	reps := setupBatches(countSetups(res.spans))
	res.layers["tc32asm.assemble_s"] = medianBatchSeconds(spanSums(res.spans, "tc32asm.assemble"), reps)
	res.layers["core.translate_s"] = medianBatchSeconds(spanSums(res.spans, "core.translate"), reps)
	res.layers["c6x.compile_fuse_s"] = medianBatchSeconds(spanSums(res.spans, "c6x.compile_fuse"), reps)
	calls := 0
	for _, s := range res.spans {
		if s.Name == "core.translate" && s.Batch == -1 {
			calls++
		}
	}
	res.layers["core.translate_calls"] = float64(calls)
	res.layers["core.c6x_packets"] = float64(staticPackets)
}

func hotPackets(runs []*hotRun) int {
	n := 0
	for _, r := range runs {
		n += len(r.prog.C6x.Packets)
	}
	return n
}

// setupBatches lists the batch ids of n set-up repetitions.
func setupBatches(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = -int64(i + 1)
	}
	return ids
}

// countSetups is the number of set-up repetitions that recorded spans.
func countSetups(spans []span) int {
	n := int64(0)
	for _, s := range spans {
		n = max(n, -s.Batch)
	}
	return int(n)
}
