// Command perfbench is the repository benchmark. It runs one of four
// workloads, each loading a different layer stack, for a fixed number of
// host seconds from a seed, checks every output it produces, and prints
// one JSON result line: end-to-end metrics from an untraced run, or
// per-layer metrics from a traced run (--trace 1). See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string // directory for traces, profiles and scratch state
}

// outcome is what a workload run measured.
type outcome struct {
	tally
	e2e    map[string]float64 // untraced run: end-to-end metrics
	layers map[string]float64 // traced run: per-layer metrics
	tail   tail               // batch_tail_ms with its percentile and sample count
	scale  float64            // median host-speed scale of the timed batches
	spans  []span             // traced run: every recorded span
	notes  []string           // failure and determinism messages for stderr
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records a failed check with its message.
func (o *outcome) fail(format string, args ...any) {
	o.add(false)
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// check records one attempted check: a nil error passes.
func (o *outcome) check(err error) {
	if err != nil {
		o.fail("%v", err)
		return
	}
	o.add(true)
}

var workloads = map[string]func(options, *tracer) (*outcome, error){
	"engine-hot":  runEngineHot,
	"soc-mix":     runSoCMix,
	"serve-local": func(o options, tr *tracer) (*outcome, error) { return runServe(o, tr, 0) },
	"serve-dist":  func(o options, tr *tracer) (*outcome, error) { return runServe(o, tr, distWorkers) },
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run executes one benchmark run. It returns exit code 2 with an error
// when the run could not be set up (no result is printed), 1 when an
// output check failed (the result is printed with correct=false), and 0
// otherwise.
func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: engine-hot, soc-mix, serve-local or serve-dist")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in host seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traces, profiles and scratch state")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	runWorkload, ok := workloads[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	o := options{workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, out: *out}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return 2, err
	}

	var tr *tracer
	var stopProfile func() error
	if o.trace {
		tr = newTracer()
		prof, err := startProfile(filepath.Join(o.out, fmt.Sprintf("%s-seed%d.cpu.pprof", o.workload, o.seed)))
		if err != nil {
			return 2, err
		}
		stopProfile = prof
	}
	res, err := runWorkload(o, tr)
	if stopProfile != nil {
		if perr := stopProfile(); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		return 2, err
	}
	if o.trace {
		self := selfTimes(res.spans)
		path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.trace.json", o.workload, o.seed))
		if err := writeChromeTrace(path, res.spans, self); err != nil {
			return 2, err
		}
		for _, layer := range sortedKeys(self) {
			fmt.Fprintf(os.Stderr, "self time %-10s %10.4f s\n", layer, self[layer].Seconds())
		}
		fmt.Fprintf(os.Stderr, "trace: %s (%d spans)\n", path, len(res.spans))
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "FAIL:", n)
	}

	r := result{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	if r.Attempted == 0 {
		return 2, errors.New("no operation completed in the timed phase")
	}
	defs, values := endToEndMetrics, res.e2e
	if o.trace {
		defs, values = perLayerMetrics, res.layers
	}
	for _, m := range defs {
		v := values[m.name]
		if o.trace && isHostTime(m) {
			v *= res.scale
		}
		r.Metrics[m.name] = metricValue{v, m.unit}
	}
	printTable(o, r, res, defs)
	line, err := json.Marshal(r)
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1, fmt.Errorf("%d of %d checks failed", r.Failed, r.Attempted)
	}
	return 0, nil
}

// printTable writes the metrics by name, unit and clock to stderr,
// naming the tail percentile and sample count.
func printTable(o options, r result, res *outcome, defs []metricDef) {
	fmt.Fprintf(os.Stderr, "%s seed=%d seconds=%g trace=%v attempted=%d failed=%d failed_frac=%g host_speed_scale=%.4f\n",
		o.workload, o.seed, o.seconds.Seconds(), o.trace, r.Attempted, r.Failed, res.frac(), res.scale)
	for _, m := range defs {
		extra := ""
		if m.name == "batch_tail_ms" {
			extra = fmt.Sprintf("  (p%g of %d batches, %d beyond)", res.tail.Percentile, res.tail.Samples, res.tail.Beyond)
		}
		fmt.Fprintf(os.Stderr, "  %-27s %14.6g %-14s %s%s\n", m.name, r.Metrics[m.name].Value, m.unit, m.clock, extra)
	}
}

func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB; where
// /proc is unavailable it falls back to the Go runtime's total
// reservation.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) == 2 && fields[1] == "kB" {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// medianSetup runs setup n times and returns the median duration in
// seconds with the last run's state; earlier states are released with
// drop. The repeated set-up is what makes setup_s steady. A setup that
// fails releases its own partial state.
func medianSetup[T any](n int, hs *hostSpeed, setup func(rep int) (T, error), drop func(T)) (T, float64, error) {
	var last, zero T
	var secs []float64
	for rep := 0; rep < n; rep++ {
		if rep > 0 && drop != nil {
			drop(last)
			last = zero
		}
		// Start each repetition from a collected heap, so that when the
		// garbage collector runs during set-up does not depend on the
		// repetitions before it.
		runtime.GC()
		hs.calibrate()
		start := time.Now()
		st, err := setup(rep)
		if err != nil {
			return zero, 0, err
		}
		secs = append(secs, time.Since(start).Seconds()*hs.scale())
		last = st
	}
	return last, median(secs), nil
}

// batchSample is one closed-loop batch: its host latency, the number of
// operations it completed and the emulated source instructions they
// executed. Batches with the same key carry the same work.
type batchSample struct {
	id     int64
	key    int
	traced bool
	ms     float64 // host latency, scaled to the reference host speed
	scale  float64 // the host-speed scale applied to ms
	ops    int
	insts  int64
}

// closedLoop runs batches back to back until d has elapsed. In a traced
// run every second batch records spans, so the untraced batches between
// them give the tracing overhead. Each batch's latency is scaled by the
// host speed measured around it (see calib.go; a nil hs leaves it as
// measured): the kernel runs before and, when due, after the batch, so
// a batch longer than calibEvery is scaled by timings from both sides.
func closedLoop(d time.Duration, tr *tracer, hs *hostSpeed, batch func(id int64) (batchSample, error)) ([]batchSample, error) {
	var out []batchSample
	deadline := time.Now().Add(d)
	for id := int64(1); time.Now().Before(deadline); id++ {
		hs.calibrate()
		traced := tr != nil && id%2 == 0
		tr.setOn(traced)
		s, err := batch(id)
		tr.setOn(false)
		if err != nil {
			return out, err
		}
		hs.calibrate()
		s.id, s.traced, s.scale = id, traced, hs.scale()
		s.ms *= s.scale
		out = append(out, s)
	}
	return out, nil
}

// medianScale is the median host-speed scale of the batches.
func medianScale(samples []batchSample) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.scale
	}
	return median(xs)
}

// loopMetrics fills the closed-loop end-to-end metrics from the
// untraced batches. With group 0 the rates come from keyed batches:
// each key's cost is the median latency of its batches, and a rate is
// the keys' total work over their total cost. Otherwise a rate is the
// median over groups of that many consecutive batches, each group
// carrying the same mix of work.
func loopMetrics(res *outcome, samples []batchSample, group int) {
	var lat []float64
	var mips, jobs []float64
	var gMS, gOps, gInsts float64
	var n int
	byKey := map[int][]batchSample{}
	for _, s := range samples {
		if s.traced {
			continue
		}
		lat = append(lat, s.ms)
		if group == 0 {
			byKey[s.key] = append(byKey[s.key], s)
			continue
		}
		gMS += s.ms
		gOps += float64(s.ops)
		gInsts += float64(s.insts)
		if n++; n%group == 0 {
			mips = append(mips, gInsts/gMS/1e3)
			jobs = append(jobs, gOps/gMS*1e3)
			gMS, gOps, gInsts = 0, 0, 0
		}
	}
	if group == 0 {
		var cost, ops, insts float64
		for _, ss := range byKey {
			ms := make([]float64, len(ss))
			for i, s := range ss {
				ms[i] = s.ms
			}
			cost += median(ms)
			ops += float64(ss[0].ops)
			insts += float64(ss[0].insts)
		}
		mips = []float64{ratio(insts, cost) / 1e3}
		jobs = []float64{ratio(ops, cost) * 1e3}
	}
	res.e2e["emu_mips"] = median(mips)
	res.e2e["jobs_per_s"] = median(jobs)
	res.e2e["batch_p50_ms"] = median(lat)
	res.tail = tailOf(lat)
	res.e2e["batch_tail_ms"] = res.tail.Value
}

// traceOverhead compares traced against untraced batch latency per key
// (batches of one key carry the same work): the median over keys of
// median(traced)/median(untraced), minus 1, in percent.
func traceOverhead(samples []batchSample) float64 {
	on, off := map[int][]float64{}, map[int][]float64{}
	for _, s := range samples {
		if s.traced {
			on[s.key] = append(on[s.key], s.ms)
		} else {
			off[s.key] = append(off[s.key], s.ms)
		}
	}
	var ratios []float64
	for k, xs := range on {
		if ys, ok := off[k]; ok {
			ratios = append(ratios, median(xs)/median(ys))
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return 100 * (median(ratios) - 1)
}

// tracedBatches lists the ids of the traced batches.
func tracedBatches(samples []batchSample) []int64 {
	var ids []int64
	for _, s := range samples {
		if s.traced {
			ids = append(ids, s.id)
		}
	}
	return ids
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
