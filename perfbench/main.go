// Command perfbench is the repository's benchmark. It runs a fleet of
// in-process AlvisP2P peers, each on its own TCP port on the loopback
// interface, drives them through the peer API with inputs generated
// from a seed, checks the answers, and prints its metrics. See
// README.md for the workloads and what each metric measures.
//
//	go run . --workload query-zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The
// lines before it print every metric of the workload by name and unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics every workload reports with --trace 0; the
// unit of work behind op_p50_ms and the per-item costs differs by
// workload (README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"wire_bytes_per_item", "B"},
	{"rpcs_per_item", "calls"},
}

// perLayer lists the metrics every workload reports with --trace 1; a
// layer the workload does not exercise in its measured phase reads 0.
var perLayer = []struct{ name, unit string }{
	{"transport.rtt_us", "us"},
	{"transport.wire_us", "us"},
	{"transport.errors", "count"},
	{"transport.errors_unreachable", "count"},
	{"transport.errors_interrupted", "count"},
	{"transport.errors_shed", "count"},
	{"dht.calls_per_op", "calls"},
	{"dht.handle_us", "us"},
	{"globalindex.resolve_ms", "ms"},
	{"globalindex.read_calls_per_query", "calls"},
	{"globalindex.read_handle_us", "us"},
	{"globalindex.keys_per_read_frame", "keys"},
	{"globalindex.write_handle_us", "us"},
	{"globalindex.keys_per_write_frame", "keys"},
	{"globalindex.keys_added_per_write", "keys"},
	{"store.append_calls", "count"},
	{"store.append_us", "us"},
	{"store.busy_share", "ratio"},
	{"store.get_us", "us"},
	{"storage.open_ms", "ms"},
	{"storage.compactions", "count"},
	{"storage.compaction_stall_ms", "ms"},
	{"storage.wal_bytes_per_posting", "B"},
	{"replication.calls_per_rejoin", "calls"},
	{"replication.handle_us", "us"},
	{"replication.pulled_keys", "keys"},
	{"replication.manifest_keys", "keys"},
	{"replication.write_through_per_posting", "calls"},
	{"ranking.calls", "count"},
	{"ranking.handle_us", "us"},
	{"hdk.terms_ms", "ms"},
	{"hdk.expand_ms", "ms"},
	{"hdk.rounds", "count"},
	{"hdk.keys", "keys"},
	{"lattice.probes", "count"},
	{"lattice.skipped", "count"},
	{"core.probe_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.present_ms", "ms"},
	{"core.candidates", "count"},
	{"core.l5_calls_per_query", "calls"},
	{"core.l5_handle_us", "us"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"gen.lag_ms", "ms"},
	{"gen.query_repeat_share", "ratio"},
	{"gen.key_repeat_share", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

var workloads = map[string]func(*bench) error{
	"publish":        runPublish,
	"query-zipf":     runQueryZipf,
	"query-mixed":    runQueryMixed,
	"durable-rejoin": runDurableRejoin,
}

// outDir, below the directory the benchmark runs from, holds the
// durable engines' data directories and the span dumps.
var outDir = filepath.Join(".bench_build", "perfbench")

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "publish, query-zipf, query-mixed or durable-rejoin")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured phase of the query workloads")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		name:    *name,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		tr:      newTracer(),
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
	}
	if err := fn(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.traced {
		if err := b.tr.writeSpans(filepath.Join(outDir, "spans-"+b.name+".jsonl")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out := output{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	list := endToEnd
	values := b.e2e
	if b.traced {
		list, values = perLayer, b.layer
		for _, m := range perLayer {
			if _, ok := values[m.name]; !ok {
				values[m.name] = 0 // a layer the measured phase does not exercise
			}
		}
	}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not set %s\n", b.name, m.name)
			return 1
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("%-40s %16.4f %s\n", m.name, v, m.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// bench is one run: its arguments, the tracer, and what the workload
// measured and checked.
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	traced  bool
	tr      *tracer

	// Accumulated over the measured windows.
	win        counters
	tracedWall time.Duration // wall time of the traced windows
	gcCPU      float64
	totalCPU   float64
	allocBytes float64

	e2e, layer        map[string]float64
	attempted, failed int
	problems          []string
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// say prints one of the workload's named metrics for the reader; a
// program reading the result takes only the JSON line.
func say(name string, v float64, unit string) {
	fmt.Printf("%-40s %16.4f %s\n", name, v, unit)
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readRuntime() [3]float64 {
	metrics.Read(runtimeSamples)
	var v [3]float64
	for i, s := range runtimeSamples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		}
	}
	return v
}

// measure runs fn as (part of) the measured phase: its counters and
// runtime costs accrue to the run. traced switches timings
// and spans on for its duration.
func (b *bench) measure(traced bool, fn func() error) error {
	before, rt0 := b.tr.snap(), readRuntime()
	var err error
	b.traceWhile(traced, func() { err = fn() })
	b.win = addCounters(b.win, b.tr.snap().sub(before))
	rt1 := readRuntime()
	b.gcCPU += rt1[0] - rt0[0]
	b.totalCPU += rt1[1] - rt0[1]
	b.allocBytes += rt1[2] - rt0[2]
	return err
}

// traceWhile runs fn with timings, spans and the probed-key census on
// (on) or off, and counts its wall time as traced when on.
func (b *bench) traceWhile(on bool, fn func()) {
	b.tr.traced.Store(on)
	b.tr.census.Store(on)
	start := time.Now()
	fn()
	if on {
		b.tracedWall += time.Since(start)
	}
	b.tr.traced.Store(false)
	b.tr.census.Store(false)
}

func addCounters(a, d counters) counters {
	for i := range a {
		a[i] += d[i]
	}
	return a
}

// liveHeapMB is the live heap after a forced collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setUp runs setup reps times, keeps the last fleet and closes the
// others, and records the median set-up time and live heap.
func (b *bench) setUp(reps int, setup func() (*fleet, error)) (*fleet, error) {
	var secs, heaps []float64
	var f *fleet
	for r := 0; r < reps; r++ {
		if f != nil {
			f.close()
		}
		start := time.Now()
		nf, err := setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		heaps = append(heaps, liveHeapMB())
		f = nf
	}
	b.setupStats(secs, heaps)
	return f, nil
}

func (b *bench) setupStats(secs, heaps []float64) {
	b.e2e["setup_s"] = median(secs)
	b.e2e["heap_mb"] = median(heaps)
}

// layerCommon fills the per-layer metrics every workload derives from
// the window counters; ops is the number of operations the workload's
// op_p50_ms is taken over, queries the number of queries.
func (b *bench) layerCommon(ops, queries int) {
	w := b.win
	meanNs := func(ns, n int64) float64 { return ratio(float64(ns), float64(n)) }
	l := b.layer
	rtt := meanNs(w.sumFam(cRTTNs), w.sumFam(cRTTTimed))
	handle := meanNs(w.sumFam(cHandleNs), w.sumFam(cHandleTimed))
	l["transport.rtt_us"] = rtt / 1e3
	l["transport.wire_us"] = (rtt - handle) / 1e3
	unreach, intr, shed := w.sumFam(cUnreachable), w.sumFam(cInterrupted), w.sumFam(cShed)
	l["transport.errors"] = float64(unreach + intr + shed + w.sumFam(cRemoteErrs))
	l["transport.errors_unreachable"] = float64(unreach)
	l["transport.errors_interrupted"] = float64(intr)
	l["transport.errors_shed"] = float64(shed)
	handleUs := func(fs ...family) float64 {
		var ns, n int64
		for _, f := range fs {
			ns += w.fam(f, cHandleNs)
			n += w.fam(f, cHandleTimed)
		}
		return meanNs(ns, n) / 1e3
	}
	l["dht.calls_per_op"] = ratio(float64(w.fam(famDHT, cCalls)), float64(ops))
	l["dht.handle_us"] = handleUs(famDHT)
	l["globalindex.read_calls_per_query"] = ratio(float64(w.fam(famGIRead, cCalls)), float64(queries))
	l["globalindex.read_handle_us"] = handleUs(famGIRead)
	l["globalindex.keys_per_read_frame"] = ratio(float64(w[cStoreReads]), float64(w.fam(famGIRead, cHandled)))
	l["globalindex.write_handle_us"] = handleUs(famGIWrite, famGIKeyInfo)
	writeFrames := w.fam(famGIWrite, cHandled) + w.fam(famReplication, cHandled)
	l["globalindex.keys_per_write_frame"] = ratio(float64(w[cStoreWrites]), float64(writeFrames))
	l["store.append_calls"] = float64(w[cStoreWrites])
	l["store.append_us"] = meanNs(w[cStoreWriteNs], w[cStoreWriteTimed]) / 1e3
	l["store.get_us"] = meanNs(w[cStoreReadNs], w[cStoreReadTimed]) / 1e3
	l["store.busy_share"] = ratio(float64(w[cStoreWriteNs]+w[cStoreReadNs]), float64(b.tracedWall))
	l["storage.compactions"] = float64(w[cCompactions])
	l["storage.compaction_stall_ms"] = float64(b.tr.stallNs.Load()) / 1e6
	l["storage.wal_bytes_per_posting"] = ratio(float64(w[cWALWritten]), float64(w[cStorePostings]))
	l["replication.handle_us"] = handleUs(famReplication)
	l["ranking.calls"] = float64(w.fam(famRanking, cCalls))
	l["ranking.handle_us"] = handleUs(famRanking)
	l["core.l5_calls_per_query"] = ratio(float64(w.fam(famL5, cCalls)), float64(queries))
	l["core.l5_handle_us"] = handleUs(famL5)
	l["runtime.gc_cpu_share"] = ratio(b.gcCPU, b.totalCPU)
	l["runtime.alloc_bytes_per_op"] = ratio(b.allocBytes, float64(ops))
}
