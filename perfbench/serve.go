package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/simfarm"
	"repro/internal/simfarm/dist"
	"repro/internal/simfarm/server"
	"repro/internal/simfarm/store"
	"repro/internal/workload"
)

const (
	// distWorkers is the in-process worker count of serve-dist: one per
	// CPU of the 2-CPU machine the benchmark is sized for.
	distWorkers = 2
	// serveSetups is how many times serve-* repeats its set-up; setup_s
	// is the median. Set-up takes about a millisecond, so many
	// repetitions are needed for a steady median.
	serveSetups = 21
	// memBatches is the batch after which serve-* reads peak memory. The
	// server keeps every tenant's farm, so memory grows with the tenants
	// served; reading it after a fixed amount of work keeps a faster
	// server from being charged for serving more tenants in the time.
	memBatches = 32
)

// serveEnv is one running service: a store and journal in a directory
// of their own, as cabt-serve -cache-dir lays them out, the server
// behind a loopback listener, and its workers.
type serveEnv struct {
	dir        string
	st         *store.Store
	srv        *server.Server
	ts         *httptest.Server
	cancel     context.CancelFunc
	wg         sync.WaitGroup
	transports []*http.Transport // one per worker
}

// close stops the workers and waits for them, then shuts the server
// down and removes the directory.
func (e *serveEnv) close() {
	if e.cancel != nil {
		e.cancel()
	}
	e.wg.Wait()
	for _, t := range e.transports {
		t.CloseIdleConnections()
	}
	if e.ts != nil {
		e.ts.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.st != nil {
		e.st.Close()
	}
	os.RemoveAll(e.dir)
}

// distLog collects what the timing round-tripper sees of the worker
// protocol while the tracer records.
type distLog struct {
	cur atomic.Int64 // client batch in flight

	mu         sync.Mutex
	leases     int
	useful     int
	heartbeats int
	firstLease map[int64]int64 // batch -> tracer time of its first non-empty lease
}

// distTimer is the http.RoundTripper handed to each worker as
// dist.WorkerConfig.Client. While the tracer records it times every
// worker request as a span classified by URL path, counts leases and
// heartbeats, and notes the first non-empty lease of each batch.
type distTimer struct {
	base *http.Transport
	tr   *tracer
	lane int
	log  *distLog
}

func (d *distTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	if !d.tr.recording() {
		return d.base.RoundTrip(req)
	}
	name := distSpanName(req)
	batch := d.log.cur.Load()
	sp := d.tr.begin(name, 0, batch, d.lane)
	resp, err := d.base.RoundTrip(req)
	if err == nil && name == "dist.lease" {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var lr struct {
			Task *struct{} `json:"task"`
		}
		useful := rerr == nil && resp.StatusCode == http.StatusOK && json.Unmarshal(body, &lr) == nil && lr.Task != nil
		// A task leased now belongs to the batch in flight now, even if
		// the request left during the previous one.
		now := d.log.cur.Load()
		d.log.mu.Lock()
		d.log.leases++
		if useful {
			d.log.useful++
			if _, seen := d.log.firstLease[now]; !seen {
				d.log.firstLease[now] = d.tr.now()
			}
		}
		d.log.mu.Unlock()
	}
	if name == "dist.heartbeat" {
		d.log.mu.Lock()
		d.log.heartbeats++
		d.log.mu.Unlock()
	}
	d.tr.end(sp)
	return resp, err
}

// distSpanName classifies a worker request by its URL path.
func distSpanName(req *http.Request) string {
	p := req.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/store/") && req.Method == http.MethodPut:
		return "store.remote_put"
	case strings.HasPrefix(p, "/v1/store/"):
		return "store.remote_get"
	case strings.HasSuffix(p, "/lease"):
		return "dist.lease"
	case strings.HasSuffix(p, "/heartbeat"):
		return "dist.heartbeat"
	case strings.HasSuffix(p, "/complete"):
		return "dist.complete"
	}
	return "dist.other"
}

// serveSetup opens a store and journal, starts the server and, for
// serve-dist, starts the workers and waits until each has registered.
func serveSetup(o options, rep, workers int, tr *tracer, log *distLog) (e *serveEnv, err error) {
	e = &serveEnv{dir: filepath.Join(o.out, fmt.Sprintf("serve-%d-%d", os.Getpid(), rep))}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()
	if err = os.RemoveAll(e.dir); err != nil {
		return e, err
	}
	if e.st, err = store.Open(filepath.Join(e.dir, "store"), store.Options{}); err != nil {
		return e, err
	}
	if e.srv, err = server.New(server.Config{Store: e.st, Journal: filepath.Join(e.dir, "journal.cabt")}); err != nil {
		return e, err
	}
	e.ts = httptest.NewServer(e.srv)
	if workers == 0 {
		return e, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	var ws []*dist.Worker
	for i := 1; i <= workers; i++ {
		base := &http.Transport{}
		e.transports = append(e.transports, base)
		w := dist.NewWorker(dist.WorkerConfig{
			Server: e.ts.URL,
			Name:   fmt.Sprintf("perfbench-%d", i),
			Client: &http.Client{Transport: &distTimer{base: base, tr: tr, lane: i, log: log}},
		})
		ws = append(ws, w)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			_ = w.Run(ctx) // returns only once ctx is cancelled
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, w := range ws {
		for w.ID() == "" {
			if time.Now().After(deadline) {
				return e, errors.New("workers did not register within 10s")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return e, nil
}

// serveOracle runs every job of the universe directly on a fresh
// simfarm.Farm: the results the service must reproduce field for field.
func serveOracle() (map[jobKey]simfarm.Result, error) {
	configs := map[string]*simfarm.MarchConfig{}
	for _, c := range simfarm.DefaultMarchConfigs() {
		configs[c.Name] = &c
	}
	keys := jobUniverse()
	jobs := make([]simfarm.Job, len(keys))
	for i, k := range keys {
		w, _ := workload.ByName(k.Workload)
		jobs[i] = simfarm.Job{Workload: w, Config: k.Config, Options: core.Options{Level: core.Level(k.Level), Desc: configs[k.Config].Desc}}
	}
	results, _ := simfarm.New(simfarm.Config{}).Run(jobs)
	out := map[jobKey]simfarm.Result{}
	for i, r := range results {
		if r.Error != "" {
			return nil, fmt.Errorf("oracle %+v: %s", keys[i], r.Error)
		}
		out[keys[i]] = r
	}
	return out, nil
}

// sameResult compares the simulated fields of a served result with the
// oracle's.
func sameResult(k jobKey, got, want simfarm.Result) error {
	if got.Error != "" {
		return fmt.Errorf("%+v: job error: %s", k, got.Error)
	}
	if got.Name != k.Workload || int(got.Level) != k.Level || got.Config != k.Config {
		return fmt.Errorf("%+v: result is for %s L%d %s", k, got.Name, int(got.Level), got.Config)
	}
	type exact struct {
		Instructions, BoardCycles, C6xCycles, GeneratedCycles int64
		BoardCPI, CPI, DeviationPct                           float64
	}
	g := exact{got.Instructions, got.BoardCycles, got.C6xCycles, got.GeneratedCycles, got.BoardCPI, got.CPI, got.DeviationPct}
	w := exact{want.Instructions, want.BoardCycles, want.C6xCycles, want.GeneratedCycles, want.BoardCPI, want.CPI, want.DeviationPct}
	if g != w {
		return fmt.Errorf("%+v: served %+v, direct farm %+v", k, g, w)
	}
	return nil
}

// doJSON sends one request with the tenant header and decodes the JSON
// reply into out, returning the reply's size in bytes.
func doJSON(c *http.Client, method, url, tenant string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, err
	}
	req.Header.Set(server.TenantHeader, tenant)
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return len(b), fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(b))
	}
	return len(b), json.Unmarshal(b, out)
}

// scrape reads /v1/metrics into a map keyed by series (name plus labels).
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// runServe drives the service with one client in a closed loop of
// 16-job batches (submit, then wait for the result), with workers
// in-process dist.Workers at the cabt-worker defaults. vliw_cpi and
// cycle_dev_pct are taken over the distinct jobs served, each of which
// must equal the direct farm run.
func runServe(o options, tr *tracer, workers int) (*outcome, error) {
	res := newOutcome()
	log := &distLog{firstLease: map[int64]int64{}}
	// serve-local batches are CPU-bound and scaled by host speed;
	// serve-dist batches mostly wait out the workers' fixed 200 ms poll
	// sleep, which host speed does not change, so they are not scaled.
	// Neither is the set-up, whose time is mostly the journal's fsync.
	var hs *hostSpeed
	if workers == 0 {
		hs = newHostSpeed()
	}
	env, setupS, err := medianSetup(serveSetups, nil, func(rep int) (*serveEnv, error) {
		return serveSetup(o, rep, workers, tr, log)
	}, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	res.e2e["setup_s"] = setupS

	oracle, err := serveOracle()
	if err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	served := map[jobKey]simfarm.Result{}
	var hits, misses float64
	memPeak := 0.0
	respBytes := map[int64]float64{}
	plan := newServePlan(o.seed)
	m0, err := scrape(client, env.ts.URL)
	if err != nil {
		return nil, err
	}
	st0 := env.st.Stats()
	before := readMem()
	samples, err := closedLoop(o.seconds, tr, hs, func(id int64) (batchSample, error) {
		k, _, keys := plan.next()
		tenant := fmt.Sprintf("perfbench-%04d", k)
		specs := make([]server.JobSpec, len(keys))
		for i, key := range keys {
			specs[i] = server.JobSpec{Workload: key.Workload, Level: key.Level, Config: key.Config}
		}
		log.cur.Store(id)
		root := tr.begin("bench.batch", 0, id, 0)
		start := time.Now()
		sp := tr.begin("server.submit", root.id, id, 0)
		var sub server.SubmitResponse
		_, err := doJSON(client, http.MethodPost, env.ts.URL+"/v1/jobs", tenant, server.SubmitRequest{Jobs: specs}, &sub)
		tr.end(sp)
		var jr server.JobResponse
		var n int
		if err == nil {
			sp = tr.begin("server.wait", root.id, id, 0)
			n, err = doJSON(client, http.MethodGet, env.ts.URL+"/v1/jobs/"+sub.ID+"?wait=1", tenant, nil, &jr)
			tr.end(sp)
		}
		ms := float64(time.Since(start)) / 1e6
		tr.end(root)
		respBytes[id] = float64(n)
		if err == nil && (jr.Status != "done" || len(jr.Results) != len(keys)) {
			err = fmt.Errorf("batch %s: status %q with %d of %d results: %s", sub.ID, jr.Status, len(jr.Results), len(keys), jr.Error)
		}
		if err != nil {
			for range keys {
				res.fail("%v", err)
			}
			return batchSample{ms: ms}, nil
		}
		s := batchSample{ms: ms}
		for i, key := range keys {
			r := jr.Results[i]
			if err := sameResult(key, r, oracle[key]); err != nil {
				res.fail("%v", err)
				continue
			}
			res.add(true)
			s.ops++
			s.insts += r.Instructions
			served[key] = r
		}
		if jr.Stats != nil {
			hits += float64(jr.Stats.CacheHits)
			misses += float64(jr.Stats.CacheMisses)
		}
		if id == memBatches {
			memPeak = peakRSSMiB()
		}
		return s, nil
	})
	after := readMem()
	if err != nil {
		return nil, err
	}
	m1, err := scrape(client, env.ts.URL)
	if err != nil {
		return nil, err
	}
	st1 := env.st.Stats()
	loopMetrics(res, samples, freshEvery)
	res.scale = medianScale(samples)
	var c6x, src float64
	var dev []float64
	for _, r := range served {
		c6x += float64(r.C6xCycles)
		src += float64(r.Instructions)
		if r.Level >= core.Level1 {
			dev = append(dev, math.Abs(r.DeviationPct))
		}
	}
	res.e2e["vliw_cpi"] = ratio(c6x, src)
	res.e2e["cycle_dev_pct"] = mean(dev)
	if memPeak == 0 {
		memPeak = peakRSSMiB()
	}
	res.e2e["mem_peak_mb"] = memPeak

	if tr != nil {
		res.spans = tr.snapshot()
		n := float64(len(samples))
		delta := func(series string) float64 { return m1[series] - m0[series] }
		perBatch := func(v float64) float64 { return ratio(v, n) }
		for _, stage := range []string{"assemble", "reference", "translate", "execute"} {
			lbl := `{stage="` + stage + `"}`
			res.layers["simfarm.stage_"+stage+"_s"] = ratio(delta("cabt_farm_stage_seconds_sum"+lbl), delta("cabt_farm_stage_seconds_count"+lbl))
		}
		res.layers["simfarm.cache_hits"] = perBatch(hits)
		res.layers["simfarm.cache_misses"] = perBatch(misses)
		res.layers["simfarm.hit_ratio"] = ratio(hits, hits+misses)
		res.layers["store.puts"] = perBatch(float64(st1.Puts - st0.Puts))
		res.layers["store.loads"] = perBatch(float64(st1.Loads - st0.Loads))
		res.layers["store.hits"] = perBatch(float64(st1.Hits - st0.Hits))
		res.layers["store.bytes"] = perBatch(float64(st1.Bytes - st0.Bytes))
		for _, m := range []string{"gets", "hits", "puts", "not_modified"} {
			res.layers["store.remote_"+m] = perBatch(delta("cabt_store_remote_" + m + "_total"))
		}
		res.layers["server.submit_ms"] = median(spanDurationsMS(res.spans, "server.submit"))
		res.layers["server.wait_ms"] = median(spanDurationsMS(res.spans, "server.wait"))
		traced := tracedBatches(samples)
		var sizes []float64
		for _, id := range traced {
			sizes = append(sizes, respBytes[id])
		}
		res.layers["server.resp_bytes"] = median(sizes)
		if workers > 0 {
			distLayers(res, log, traced)
			res.layers["dist.lease_expiries"] = perBatch(delta("cabt_queue_lease_expiries_total"))
			res.layers["dist.retries"] = perBatch(delta("cabt_queue_retries_total"))
		}
		runtimeLayers(res, before, after, samples)
	}
	return res, nil
}

// distLayers fills the dist.* metrics recorded by the timing
// round-tripper during the traced batches.
func distLayers(res *outcome, log *distLog, traced []int64) {
	log.mu.Lock()
	defer log.mu.Unlock()
	nt := float64(len(traced))
	res.layers["dist.lease_calls"] = ratio(float64(log.leases), nt)
	res.layers["dist.lease_useful_ratio"] = ratio(float64(log.useful), float64(log.leases))
	res.layers["dist.heartbeat_calls"] = ratio(float64(log.heartbeats), nt)
	res.layers["dist.lease_rtt_ms"] = median(spanDurationsMS(res.spans, "dist.lease"))
	res.layers["dist.complete_rtt_ms"] = median(spanDurationsMS(res.spans, "dist.complete"))
	starts := map[int64]int64{}
	for _, s := range res.spans {
		if s.Name == "bench.batch" {
			starts[s.Batch] = s.Start
		}
	}
	var waits []float64
	for _, id := range traced {
		if t, ok := log.firstLease[id]; ok {
			waits = append(waits, float64(t-starts[id])/1e6)
		}
	}
	res.layers["dist.first_lease_wait_ms"] = median(waits)
}
