package main

import (
	"runtime"
	"strings"
)

// metricDef names one reported metric. clock says whether the number is
// host time (or derived from it) or a simulated count, which is exact.
type metricDef struct {
	name, unit, clock string
}

const (
	host = "host"
	sim  = "simulated"
)

// endToEndMetrics are reported by every untraced run, in this order.
// BENCHMARK.json lists the same names and units.
var endToEndMetrics = []metricDef{
	{"emu_mips", "Minst/s", host},
	{"vliw_cpi", "cyc/inst", sim},
	{"cycle_dev_pct", "%", sim},
	{"jobs_per_s", "jobs/s", host},
	{"batch_p50_ms", "ms", host},
	{"batch_tail_ms", "ms", host},
	{"setup_s", "s", host},
	{"mem_peak_mb", "MiB", host},
}

// perLayerMetrics are reported by every traced run. A metric of a layer
// the workload never enters reads 0. "/batch" values are per closed-loop
// batch (a round on engine-hot and soc-mix, a 16-job farm batch on
// serve-*); "/setup" values are per set-up repetition.
var perLayerMetrics = []metricDef{
	{"tc32asm.assemble_s", "s/setup", host},
	{"core.translate_s", "s/setup", host},
	{"core.translate_calls", "calls/setup", host},
	{"core.c6x_packets", "packets", sim},
	{"c6x.compile_fuse_s", "s/setup", host},
	{"platform.new_s", "s/batch", host},
	{"platform.run_s", "s/batch", host},
	{"platform.packets", "packets/batch", sim},
	{"platform.ns_per_packet", "ns", host},
	{"platform.regions", "regions/batch", sim},
	{"platform.stall_cycles", "cycles/batch", sim},
	{"platform.c6x_cycles", "cycles/batch", sim},
	{"platform.generated_cycles", "cycles/batch", sim},
	{"iss.ref_s", "s/setup", host},
	{"iss.retired", "inst/setup", sim},
	{"soc.new_s", "s/batch", host},
	{"soc.run_seq_s", "s/batch", host},
	{"soc.run_par_s", "s/batch", host},
	{"soc.quanta", "quanta/batch", sim},
	{"soc.ns_per_quantum", "ns", host},
	{"socbus.transactions", "txn/batch", sim},
	{"socbus.wait_cycles", "cycles/batch", sim},
	{"soc.irqs_taken", "irqs/batch", sim},
	{"soc.idle_cycles", "cycles/batch", sim},
	{"soc.spec_commits", "count/batch", host},
	{"soc.spec_rollbacks", "count/batch", host},
	{"soc.spec_commit_ratio", "ratio", host},
	{"simfarm.stage_assemble_s", "s/job", host},
	{"simfarm.stage_reference_s", "s/job", host},
	{"simfarm.stage_translate_s", "s/job", host},
	{"simfarm.stage_execute_s", "s/job", host},
	{"simfarm.cache_hits", "count/batch", host},
	{"simfarm.cache_misses", "count/batch", host},
	{"simfarm.hit_ratio", "ratio", host},
	{"store.puts", "count/batch", host},
	{"store.loads", "count/batch", host},
	{"store.hits", "count/batch", host},
	{"store.bytes", "bytes/batch", host},
	{"store.remote_gets", "count/batch", host},
	{"store.remote_hits", "count/batch", host},
	{"store.remote_puts", "count/batch", host},
	{"store.remote_not_modified", "count/batch", host},
	{"server.submit_ms", "ms", host},
	{"server.wait_ms", "ms", host},
	{"server.resp_bytes", "bytes", host},
	{"dist.lease_calls", "calls/batch", host},
	{"dist.lease_useful_ratio", "ratio", host},
	{"dist.first_lease_wait_ms", "ms", host},
	{"dist.lease_rtt_ms", "ms", host},
	{"dist.complete_rtt_ms", "ms", host},
	{"dist.heartbeat_calls", "calls/batch", host},
	{"dist.lease_expiries", "count/batch", host},
	{"dist.retries", "count/batch", host},
	{"runtime.gc_cycles", "count/batch", host},
	{"runtime.alloc_mb", "MiB/batch", host},
	{"runtime.mallocs_per_kinst", "mallocs/kinst", host},
	{"trace.overhead_pct", "%", host},
}

// isHostTime reports whether a per-layer metric is a host time, which
// the traced run scales by its median host-speed scale as it scales
// batch latencies.
func isHostTime(m metricDef) bool {
	return m.clock == host && (m.unit == "ms" || m.unit == "ns" || strings.HasPrefix(m.unit, "s/"))
}

// memSnap is a reading of the Go runtime's allocation counters.
type memSnap struct {
	gc             uint32
	alloc, mallocs uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{gc: ms.NumGC, alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// runtimeLayers fills the runtime.* metrics for the timed phase between
// two readings.
func runtimeLayers(res *outcome, before, after memSnap, samples []batchSample) {
	n := float64(len(samples))
	var insts float64
	for _, s := range samples {
		insts += float64(s.insts)
	}
	res.layers["runtime.gc_cycles"] = ratio(float64(after.gc-before.gc), n)
	res.layers["runtime.alloc_mb"] = ratio(float64(after.alloc-before.alloc)/(1<<20), n)
	res.layers["runtime.mallocs_per_kinst"] = ratio(float64(after.mallocs-before.mallocs), insts/1000)
	res.layers["trace.overhead_pct"] = traceOverhead(samples)
}
