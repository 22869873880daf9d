package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of the module the layer is named after. Times are
// host nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Name   string `json:"name"`   // "<layer>.<call>", e.g. "platform.run"
	Batch  int64  `json:"batch"`  // round, SoC pass or farm batch the call served
	Lane   int    `json:"lane"`   // 0 = benchmark client; n = in-process worker n
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// layer is the module part of a span name.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing; begin/end then cost one atomic load.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setOn starts or stops recording.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// recording reports whether spans are being recorded.
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// now is the tracer clock: host nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// spanRef is an open span; the zero value is a span that records nothing.
type spanRef struct {
	id, parent, batch int64
	lane              int
	name              string
	start             int64
}

// begin opens a span if the tracer is recording.
func (t *tracer) begin(name string, parent, batch int64, lane int) spanRef {
	if !t.recording() {
		return spanRef{}
	}
	return spanRef{
		id: t.nextID.Add(1), parent: parent, batch: batch, lane: lane,
		name: name, start: t.now(),
	}
}

// end closes a span opened by begin.
func (t *tracer) end(r spanRef) {
	if r.id == 0 {
		return
	}
	s := span{ID: r.id, Parent: r.parent, Name: r.name, Batch: r.batch, Lane: r.lane, Start: r.start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes reduces spans to self time per layer: each span's duration
// minus the part of its interval covered by its children (overlapping
// children are counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += time.Duration(s.End-s.Start) - time.Duration(covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// spanSums adds up the durations of the named spans per batch.
func spanSums(spans []span, name string) map[int64]time.Duration {
	out := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Batch] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// medianBatchSeconds is the median over batches of a per-batch total, in
// seconds; batches without the span count as 0.
func medianBatchSeconds(sums map[int64]time.Duration, batches []int64) float64 {
	xs := make([]float64, len(batches))
	for i, b := range batches {
		xs[i] = sums[b].Seconds()
	}
	return median(xs)
}

// meanBatchSeconds is the total duration of the named spans divided by
// the number of batches, in seconds.
func meanBatchSeconds(spans []span, name string, batches float64) float64 {
	var total time.Duration
	for _, s := range spans {
		if s.Name == name {
			total += time.Duration(s.End - s.Start)
		}
	}
	return ratio(total.Seconds(), batches)
}

// spanDurationsMS lists the durations of every span of the given name,
// in milliseconds.
func spanDurationsMS(spans []span, name string) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start)/1e6)
		}
	}
	return xs
}

// writeChromeTrace writes spans in the Chrome trace-event format (load
// in chrome://tracing or ui.perfetto.dev): one complete event per span,
// lane as thread, with id, parent and batch in args.
func writeChromeTrace(path string, spans []span, selfByLayer map[string]time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, `{"traceEvents":[`)
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"batch":%d}}%s`+"\n",
			s.Name, s.layer(), s.Lane, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.ID, s.Parent, s.Batch, sep)
	}
	self := map[string]float64{}
	for k, v := range selfByLayer {
		self[k] = v.Seconds()
	}
	sb, err := json.Marshal(self)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "],\"displayTimeUnit\":\"ms\",\"selfSecondsByLayer\":%s}\n", sb)
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
