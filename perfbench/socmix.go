package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/elf32"
	"repro/internal/soc"
	"repro/internal/tc32asm"
	"repro/internal/workload"
)

// socSetups is how many times soc-mix repeats its set-up; setup_s is
// the median.
const socSetups = 3

// socCase is one drawn SoC with its translated core programs.
type socCase struct {
	draw     socDraw
	mw       workload.MultiWorkload
	elfs     []*elf32.File
	progs    []*core.Program
	ref      soc.Stats  // reference ISS cores, same quantum and arbitration
	baseline *soc.Stats // first translated run; every later run must equal it
}

func (c *socCase) config(parallel, iss bool) soc.Config {
	cores := make([]soc.CoreConfig, len(c.elfs))
	for i := range cores {
		cores[i] = soc.CoreConfig{Name: fmt.Sprintf("core%d", i), ELF: c.elfs[i], UseISS: iss}
		if !iss {
			cores[i].Prog = c.progs[i]
			cores[i].Options = core.Options{Level: c.draw.Level}
		}
	}
	return soc.Config{Cores: cores, Quantum: c.draw.Quantum, Arbitration: c.draw.Arb, Parallel: parallel}
}

func (c *socCase) name() string {
	d := c.draw
	return fmt.Sprintf("%s cores=%d q=%d %v L%d", d.Workload, d.Cores, d.Quantum, d.Arb, int(d.Level))
}

// socSetup assembles and translates every core program of the seed's
// draws, once per (workload, core count, level), then builds each SoC
// once, which compiles and fuses its programs.
func socSetup(seed uint64, tr *tracer, rep int) ([]*socCase, error) {
	batch := -int64(rep + 1)
	type progKey struct {
		name  string
		cores int
		level core.Level
	}
	type progSet struct {
		elfs  []*elf32.File
		progs []*core.Program
	}
	translated := map[progKey]progSet{}
	var cases []*socCase
	for _, d := range socDraws(seed) {
		mw, ok := workload.MCByName(d.Workload, d.Cores)
		if !ok {
			return nil, fmt.Errorf("%s unavailable at %d cores", d.Workload, d.Cores)
		}
		key := progKey{d.Workload, d.Cores, d.Level}
		ps, ok := translated[key]
		if !ok {
			for _, w := range mw.Cores {
				sp := tr.begin("tc32asm.assemble", 0, batch, 0)
				f, err := tc32asm.Assemble(w.Source)
				tr.end(sp)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", w.Name, err)
				}
				sp = tr.begin("core.translate", 0, batch, 0)
				p, err := core.Translate(f, core.Options{Level: d.Level})
				tr.end(sp)
				if err != nil {
					return nil, fmt.Errorf("%s L%d: %w", w.Name, int(d.Level), err)
				}
				ps.elfs = append(ps.elfs, f)
				ps.progs = append(ps.progs, p)
			}
			translated[key] = ps
		}
		c := &socCase{draw: d, mw: mw, elfs: ps.elfs, progs: ps.progs}
		sp := tr.begin("c6x.compile_fuse", 0, batch, 0)
		_, err := soc.New(c.config(false, false))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name(), err)
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// checkSoC verifies every core's debug-port output.
func checkSoC(c *socCase, s *soc.System) error {
	for i, w := range c.mw.Cores {
		if err := workload.SameOutput(s.Output(i), w.Expected); err != nil {
			return fmt.Errorf("%s core%d: %w", c.name(), i, err)
		}
	}
	return nil
}

// runSoCMix: each batch runs one drawn SoC on both the sequential and
// the parallel scheduler, in seeded order; the two must agree exactly
// with each other and with every earlier run of that SoC. A pass runs
// every draw once, in a fresh seeded order.
func runSoCMix(o options, tr *tracer) (*outcome, error) {
	res := newOutcome()
	hs := newHostSpeed()
	tr.setOn(true)
	cases, setupS, err := medianSetup(socSetups, hs, func(rep int) ([]*socCase, error) {
		return socSetup(o.seed, tr, rep)
	}, nil)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS

	// Reference: the same SoCs on reference-ISS cores, outside setup_s.
	var issRetired float64
	refStart := time.Now()
	for _, c := range cases {
		sp := tr.begin("iss.ref", 0, 0, 0)
		s, err := soc.New(c.config(false, true))
		if err == nil {
			err = s.Run()
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", c.name(), err)
		}
		res.check(checkSoC(c, s))
		c.ref = s.Results()
		issRetired += float64(c.ref.TotalInstructions)
	}
	refSeconds := time.Since(refStart).Seconds()
	tr.setOn(false)

	var commits, rollbacks float64
	orders := newOrderStream(o.seed)
	var pass []int
	before := readMem()
	samples, err := closedLoop(o.seconds, tr, hs, func(id int64) (batchSample, error) {
		i := int(id-1) % len(cases)
		if i == 0 {
			pass = orders.next(len(cases))
		}
		k := pass[i]
		c := cases[k]
		root := tr.begin("bench.batch", 0, id, 0)
		start := time.Now()
		var insts int64
		for _, parallel := range [][]bool{{false, true}, {true, false}}[orders.next(2)[0]] {
			sp := tr.begin("soc.new", root.id, id, 0)
			s, err := soc.New(c.config(parallel, false))
			tr.end(sp)
			if err != nil {
				res.fail("%s: %v", c.name(), err)
				continue
			}
			runName := "soc.run_seq"
			if parallel {
				runName = "soc.run_par"
			}
			sp = tr.begin(runName, root.id, id, 0)
			err = s.Run()
			tr.end(sp)
			if err == nil {
				err = checkSoC(c, s)
			}
			if err != nil {
				res.fail("%s parallel=%v: %v", c.name(), parallel, err)
				continue
			}
			st := s.Results()
			if c.baseline == nil {
				c.baseline = &st
			} else if !reflect.DeepEqual(st, *c.baseline) {
				res.fail("%s parallel=%v: simulated counts differ from the first run", c.name(), parallel)
				continue
			}
			if parallel && tr.recording() {
				cs, rs, _ := s.SpecStats()
				commits += float64(sum(cs))
				rollbacks += float64(sum(rs))
			}
			res.add(true)
			insts += st.TotalInstructions
		}
		ms := float64(time.Since(start)) / 1e6
		tr.end(root)
		return batchSample{key: k, ms: ms, ops: 2, insts: insts}, nil
	})
	after := readMem()
	if err != nil {
		return nil, err
	}
	loopMetrics(res, samples, 0)
	res.scale = medianScale(samples)
	res.e2e["mem_peak_mb"] = peakRSSMiB()

	// Simulated counts per batch: the mean over draws of both runs.
	var c6x, src, quanta, txn, wait, irqs, idle float64
	var dev []float64
	for _, c := range cases {
		b := c.baseline
		if b == nil {
			continue
		}
		src += 2 * float64(b.TotalInstructions)
		quanta += 2 * float64(b.Quanta)
		txn += 2 * float64(b.BusTransactions)
		wait += 2 * float64(b.BusWaitCycles)
		for _, cr := range b.Cores {
			c6x += 2 * float64(cr.C6xCycles)
			irqs += 2 * float64(cr.IRQsTaken)
			idle += 2 * float64(cr.IdleCycles)
		}
		dev = append(dev, 100*math.Abs(float64(b.TotalCycles-c.ref.TotalCycles))/float64(c.ref.TotalCycles))
	}
	res.e2e["vliw_cpi"] = ratio(c6x, src)
	res.e2e["cycle_dev_pct"] = mean(dev)

	if tr != nil {
		res.spans = tr.snapshot()
		packets := 0
		for _, c := range cases {
			for _, p := range c.progs {
				packets += len(p.C6x.Packets)
			}
		}
		setupLayers(res, packets)
		traced := tracedBatches(samples)
		nc, nt := float64(len(cases)), float64(len(traced))
		res.layers["iss.ref_s"] = refSeconds
		res.layers["iss.retired"] = issRetired
		res.layers["platform.c6x_cycles"] = c6x / nc
		res.layers["soc.new_s"] = meanBatchSeconds(res.spans, "soc.new", nt)
		res.layers["soc.run_seq_s"] = meanBatchSeconds(res.spans, "soc.run_seq", nt)
		res.layers["soc.run_par_s"] = meanBatchSeconds(res.spans, "soc.run_par", nt)
		res.layers["soc.quanta"] = quanta / nc
		res.layers["soc.ns_per_quantum"] = ratio((res.layers["soc.run_seq_s"]+res.layers["soc.run_par_s"])*1e9, quanta/nc)
		res.layers["socbus.transactions"] = txn / nc
		res.layers["socbus.wait_cycles"] = wait / nc
		res.layers["soc.irqs_taken"] = irqs / nc
		res.layers["soc.idle_cycles"] = idle / nc
		res.layers["soc.spec_commits"] = ratio(commits, nt)
		res.layers["soc.spec_rollbacks"] = ratio(rollbacks, nt)
		res.layers["soc.spec_commit_ratio"] = ratio(commits, commits+rollbacks)
		runtimeLayers(res, before, after, samples)
	}
	return res, nil
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
