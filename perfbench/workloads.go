package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/sim"
)

// Sizes, rates and deadlines of the workloads; README.md explains the
// choices.
const (
	fleetPeers = 16
	fleetDocs  = 250

	publishFleets = 4 // publications per publish run (set up afresh each time)
	setupReps     = 2 // set-ups per run of the other workloads

	queryTimeout = 2 * time.Second  // per-query deadline, applied like the binary's -query-timeout
	warmup       = time.Second      // untimed queries before a query window
	windowSlices = 6                // a query window alternates untraced and traced slices
	writeTimeout = 30 * time.Second // per-write deadline

	zipfDistinct   = 300
	zipfPopularity = 1.2
	// popularityPhases splits a query window into phases, each ranking
	// the distinct queries in its own seeded order: popularity drifts,
	// and a run's costs do not hinge on which few queries one ranking
	// puts on top.
	popularityPhases = 6
	zipfRate         = 100 // queries per second, offered
	zipfWorkers      = 2

	mixedDistinct   = 3000
	mixedPopularity = 0.1 // near-uniform
	mixedRate       = 100 // queries per second, offered, from one goroutine
	mixedWriteRate  = 0.5 // documents added and published per second, from one goroutine

	durablePeers    = 8
	durableSetups   = 5 // set-ups per run: a durable set-up is short, so take the median of more
	durableDocs     = 80
	durableCycles   = 21 // rejoins per run: each peer but peer 0 restarts three times
	durableFresh    = 40 // keys written into a stopped peer's range
	durableQueries  = 40
	maxRejoinRounds = 40
)

// topK is the result count every query asks for.
const topK = 10

// runPublish measures the lockstep fleet publication. Each of
// publishFleets rounds sets a fleet up afresh from the same seed and
// publishes it, so the key and posting counts must repeat exactly.
func runPublish(b *bench) error {
	ctx := context.Background()
	coll := corpusFor(fleetDocs)
	cfg := core.Config{HDK: hdkConfigFor(fleetDocs)}
	var setups, heaps, pubMs, rates []float64
	var first hdkRun
	var runs []hdkRun
	postings := 0
	for r := 0; r < publishFleets; r++ {
		start := time.Now()
		f, err := setupFleet(ctx, b.tr, fleetPeers, cfg, coll, b.seed, "")
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		heaps = append(heaps, liveHeapMB())

		// In a traced run the first publication is the untraced control.
		traced := b.traced && r > 0
		var run hdkRun
		pubStart := time.Now()
		err = b.measure(traced, func() error {
			var err error
			run, err = f.publishHDK(ctx)
			return err
		})
		d := time.Since(pubStart)
		f.close()
		b.attempted++
		if err != nil {
			b.failed++
			b.problem("publication %d: %v", r, err)
			continue
		}
		pubMs = append(pubMs, ms(d)*1000/float64(run.postings))
		rates = append(rates, float64(run.postings)/d.Seconds())
		postings += run.postings
		if traced {
			runs = append(runs, run)
		}
		if r == 0 {
			first = run
		} else if run.keys != first.keys || run.postings != first.postings {
			b.problem("publication %d shipped %d keys / %d postings, publication 0 %d / %d",
				r, run.keys, run.postings, first.keys, first.postings)
		}
	}
	if len(pubMs) == 0 {
		return fmt.Errorf("no publication completed")
	}
	b.setupStats(setups, heaps)
	w := b.win
	b.e2e["op_p50_ms"] = median(pubMs)
	b.e2e["wire_bytes_per_item"] = ratio(float64(w.sumFam(cBytes)), float64(postings))
	b.e2e["rpcs_per_item"] = ratio(float64(w.sumFam(cCalls)), float64(postings))
	say("publish_ms_per_1000_postings", median(pubMs), "ms")
	say("publish_postings_per_s", median(rates), "postings/s")
	say("publish_bytes_per_posting", b.e2e["wire_bytes_per_item"], "B")
	say("publish_keys", float64(first.keys), "keys")
	say("publish_postings", float64(first.postings), "postings")
	say("failed_frac", ratio(float64(b.failed), float64(b.attempted)), "ratio")

	if b.traced {
		b.layerCommon(len(pubMs), 0)
		b.layerHDK(runs)
		if len(pubMs) > 1 {
			b.layer["trace.overhead_frac"] = median(pubMs[1:])/pubMs[0] - 1
		}
	}
	return nil
}

func (b *bench) layerHDK(runs []hdkRun) {
	var terms, expand, rounds, keys []float64
	for _, r := range runs {
		terms = append(terms, ms(r.terms))
		expand = append(expand, ms(r.expand))
		rounds = append(rounds, float64(r.rounds))
		keys = append(keys, float64(r.keys))
	}
	b.layer["hdk.terms_ms"] = median(terms)
	b.layer["hdk.expand_ms"] = median(expand)
	b.layer["hdk.rounds"] = median(rounds)
	b.layer["hdk.keys"] = median(keys)
}

// publishedFleet sets up a fleet and publishes it: the state the query
// workloads read from.
func (b *bench) publishedFleet(ctx context.Context, coll *corpus.Collection) (*fleet, error) {
	f, err := setupFleet(ctx, b.tr, fleetPeers, core.Config{HDK: hdkConfigFor(fleetDocs)}, coll, b.seed, "")
	if err != nil {
		return nil, err
	}
	if _, err := f.publishHDK(ctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// queryParams shapes one query workload.
type queryParams struct {
	distinct   int
	popularity float64
	rate       float64 // offered queries per second
	workers    int
	writeRate  float64 // offered writes per second; 0 = read-only
}

func runQueryZipf(b *bench) error {
	return b.runQueries(queryParams{distinct: zipfDistinct, popularity: zipfPopularity, rate: zipfRate, workers: zipfWorkers})
}

func runQueryMixed(b *bench) error {
	return b.runQueries(queryParams{distinct: mixedDistinct, popularity: mixedPopularity, rate: mixedRate, workers: 1, writeRate: mixedWriteRate})
}

type queryRec struct {
	query, peer  int
	lag, latency time.Duration
	err          error
	results      []core.Result
	trace        *core.QueryTrace
	calls, bytes int64
	traced       bool
}

type writeRec struct {
	latency time.Duration
	err     error
}

// openLoop issues n operations from workers goroutines on a fixed
// schedule: operation i is due interval×i after the start, whether or
// not earlier ones have finished.
func openLoop(n int, interval time.Duration, workers int, do func(i int, due time.Time)) {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				do(i, due)
			}
		}()
	}
	wg.Wait()
}

func (b *bench) runQueries(qp queryParams) error {
	ctx := context.Background()
	coll := corpusFor(fleetDocs)
	f, err := b.setUp(setupReps, func() (*fleet, error) { return b.publishedFleet(ctx, coll) })
	if err != nil {
		return err
	}
	defer f.close()

	wl := corpus.GenerateWorkload(coll, corpus.WorkloadParams{
		NumQueries: qp.distinct, MaxTerms: 3, PopularityS: qp.popularity, Seed: b.seed + 1})
	index := make(map[string]int, len(wl.Queries))
	for i, q := range wl.Queries {
		index[q.Text()] = i
	}
	n := int(qp.rate * b.seconds.Seconds())
	stream := make([]int, 0, n) // distinct-query index of each issued query
	for ph := 0; ph < popularityPhases; ph++ {
		perm := rand.New(rand.NewSource(b.seed + 10 + int64(ph))).Perm(len(wl.Queries))
		for _, q := range wl.Stream(n*(ph+1)/popularityPhases-len(stream), b.seed+20+int64(ph)) {
			stream = append(stream, perm[index[q.Text()]])
		}
	}
	rng := rand.New(rand.NewSource(b.seed + 3))
	peerOf := make([]int, n)
	for i := range peerOf {
		peerOf[i] = rng.Intn(len(f.peers))
	}
	recs := make([]queryRec, n)

	// Writes of query-mixed: new documents, each added to a seeded peer
	// and published with PublishIndex.
	nw := int(qp.writeRate * b.seconds.Seconds())
	extraColl := corpus.Generate(corpus.Params{NumDocs: max(nw, 1), VocabSize: fleetDocs, MeanDocLen: 60, NumTopics: 20, Seed: b.seed + 4})
	wrng := rand.New(rand.NewSource(b.seed + 5))
	writePeer := make([]int, nw)
	for i := range writePeer {
		writePeer[i] = wrng.Intn(len(f.peers))
	}
	wrecs := make([]writeRec, nw)
	extra := make(map[postings.DocRef]string)
	var extraMu sync.Mutex
	keysBefore := f.globalKeys()

	// Warm-up, untimed: the peers' resolver and connection state fill
	// before the measured phase, as on a long-running peer.
	warm := wl.Stream(int(qp.rate*warmup.Seconds()), b.seed+30)
	openLoop(len(warm), time.Duration(float64(time.Second)/qp.rate), qp.workers, func(i int, due time.Time) {
		b.query(f, i%len(f.peers), 0, warm[i].Text(), due)
	})

	// The query stream runs in windowSlices slices; in a traced run every
	// other slice is traced and the rest are the untraced control.
	// Untraced runs slice the same way, so both do the same work. The
	// writer runs across the slices at its own fixed rate.
	err = b.measure(false, func() error {
		var wg sync.WaitGroup
		if nw > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				openLoop(nw, time.Duration(float64(time.Second)/qp.writeRate), 1, func(i int, due time.Time) {
					doc := extraColl.Docs[i]
					doc.Name = fmt.Sprintf("new%05d.txt", i)
					p := writePeer[i]
					wctx, cancel := context.WithTimeout(ctx, writeTimeout)
					defer cancel()
					wctx, o := b.tr.startOp(wctx)
					stored, err := f.peers[p].AddDocument(docFromCorpus(doc))
					if err == nil {
						extraMu.Lock()
						extra[postings.DocRef{Peer: f.addrs[p], Doc: stored.ID}] = doc.Title + "\n" + doc.Body
						extraMu.Unlock()
						_, err = f.peers[p].PublishIndex(wctx)
					}
					b.tr.endOp(o, "write")
					wrecs[i] = writeRec{latency: time.Since(due), err: err}
				})
			}()
		}
		for s := 0; s < windowSlices; s++ {
			lo, hi := n*s/windowSlices, n*(s+1)/windowSlices
			traced := b.traced && s%2 == 1
			b.traceWhile(traced, func() {
				openLoop(hi-lo, time.Duration(float64(time.Second)/qp.rate), qp.workers, func(i int, due time.Time) {
					i += lo
					recs[i] = b.query(f, peerOf[i], stream[i], wl.Queries[stream[i]].Text(), due)
					recs[i].traced = traced
				})
			})
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return err
	}
	keysAdded := ratio(float64(f.globalKeys()-keysBefore), float64(nw))

	// Checks, outside the measured phase.
	var lat, ctrlLat, tracedLat, lags, calls, bytes, overlaps []float64
	first := make(map[int][]postings.DocRef)
	seen := make(map[int]bool)
	repeats := 0
	for _, r := range recs {
		b.attempted++
		if seen[r.query] {
			repeats++
		}
		seen[r.query] = true
		lat = append(lat, ms(r.latency))
		lags = append(lags, ms(r.lag))
		if r.traced {
			tracedLat = append(tracedLat, ms(r.latency))
		} else {
			ctrlLat = append(ctrlLat, ms(r.latency))
		}
		calls = append(calls, float64(r.calls))
		bytes = append(bytes, float64(r.bytes))
		if r.err != nil {
			b.failed++
			continue
		}
		text := wl.Queries[r.query].Text()
		if err := f.checkResults(text, r.results, extra); err != nil {
			b.problem("%v", err)
		}
		if qp.writeRate > 0 {
			continue
		}
		// Read-only: the answer is checked against centralized BM25
		// over the same documents, and a repeated query must get the
		// same answer.
		var got []int
		refs := make([]postings.DocRef, len(r.results))
		for j, res := range r.results {
			got = append(got, f.docOf[res.Ref])
			refs[j] = res.Ref
		}
		overlaps = append(overlaps, sim.OverlapAtK(got, centralTop(f, text), topK))
		if prev, ok := first[r.query]; !ok {
			first[r.query] = refs
		} else if !sameRefs(prev, refs) {
			b.problem("query %q answered %v, earlier %v", text, refs, prev)
		}
	}
	var wlat []float64
	for _, w := range wrecs {
		b.attempted++
		wlat = append(wlat, ms(w.latency))
		if w.err != nil {
			b.failed++
			fmt.Fprintln(os.Stderr, "perfbench: write failed:", w.err)
		}
	}
	for _, r := range recs {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: query %q from peer %d failed: %v\n", wl.Queries[r.query].Text(), r.peer, r.err)
		}
	}

	b.e2e["op_p50_ms"] = median(lat)
	b.e2e["wire_bytes_per_item"] = mean(bytes)
	b.e2e["rpcs_per_item"] = mean(calls)
	say("query_p50_ms", median(lat), "ms")
	say("query_p99_ms", quantile(lat, 0.99), "ms")
	say("query_samples", float64(len(lat)), "count")
	say("query_rpcs", mean(calls), "calls")
	say("query_bytes", mean(bytes), "B")
	if qp.writeRate == 0 {
		o := mean(overlaps)
		say("query_overlap_at10", o, "ratio")
		if o < 0.5 {
			b.problem("mean overlap@10 with centralized BM25 is %.3f, below 0.5", o)
		}
	} else {
		say("write_p50_ms", median(wlat), "ms")
		say("write_p90_ms", quantile(wlat, 0.9), "ms")
		say("write_samples", float64(len(wlat)), "count")
		say("keys_added_per_write", keysAdded, "keys")
	}
	say("query_repeat_share", ratio(float64(repeats), float64(len(recs))), "ratio")
	say("failed_frac", ratio(float64(b.failed), float64(b.attempted)), "ratio")

	if b.traced {
		b.layerCommon(len(recs)+len(wrecs), len(recs))
		b.layerQueries(recs)
		l := b.layer
		l["globalindex.keys_added_per_write"] = keysAdded
		l["gen.lag_ms"] = quantile(lags, 0.99)
		l["gen.query_repeat_share"] = ratio(float64(repeats), float64(len(recs)))
		b.tr.mu.Lock()
		l["gen.key_repeat_share"] = 1 - ratio(float64(len(b.tr.keySeen)), float64(b.tr.keyReads))
		b.tr.mu.Unlock()
		l["trace.overhead_frac"] = median(tracedLat)/median(ctrlLat) - 1
	}
	return nil
}

// query runs one search under the per-query deadline; its latency is
// measured from when it was due.
func (b *bench) query(f *fleet, peer, qi int, text string, due time.Time) queryRec {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	ctx, o := b.tr.startOp(ctx)
	resp, err := f.peers[peer].Search(ctx, text, core.WithTopK(topK))
	b.tr.endOp(o, "query")
	r := queryRec{query: qi, peer: peer, lag: start.Sub(due), latency: time.Since(due), err: err,
		calls: o.calls.Load(), bytes: o.bytes.Load()}
	if resp != nil {
		r.results, r.trace = resp.Results, resp.Trace
	}
	return r
}

func centralTop(f *fleet, text string) []int {
	res := f.central.Search(text, topK)
	out := make([]int, len(res))
	for i, r := range res {
		out[i] = int(r.Doc)
	}
	return out
}

func sameRefs(a, b []postings.DocRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// globalKeys is the number of keys stored over the fleet.
func (f *fleet) globalKeys() int {
	n := 0
	for _, p := range f.peers {
		n += len(p.GlobalIndex().Store().Keys())
	}
	return n
}

// spanView is the JSON shape of a QueryTrace span.
type spanView struct {
	Name       string     `json:"name"`
	Start      time.Time  `json:"start"`
	DurationUS int64      `json:"duration_us"`
	Children   []spanView `json:"children"`
}

// selfTimes adds each span's self time — its duration minus the part
// of it its children cover — and its total duration to the maps, by
// span name, in microseconds.
func selfTimes(v spanView, self, total map[string]float64) {
	end := v.Start.Add(time.Duration(v.DurationUS) * time.Microsecond)
	covered := time.Duration(0)
	cur, curEnd := time.Time{}, time.Time{}
	for _, c := range sortedChildren(v.Children) {
		cs, ce := c.Start, c.Start.Add(time.Duration(c.DurationUS)*time.Microsecond)
		if cs.Before(v.Start) {
			cs = v.Start
		}
		if ce.After(end) {
			ce = end
		}
		if !ce.After(cs) {
			continue
		}
		if cur.IsZero() || cs.After(curEnd) {
			covered += curEnd.Sub(cur)
			cur, curEnd = cs, ce
		} else if ce.After(curEnd) {
			curEnd = ce
		}
		selfTimes(c, self, total)
	}
	covered += curEnd.Sub(cur)
	self[v.Name] += float64(v.DurationUS) - float64(covered)/1e3
	total[v.Name] += float64(v.DurationUS)
}

func sortedChildren(cs []spanView) []spanView {
	out := append([]spanView(nil), cs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Start.Before(out[j-1].Start); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// layerQueries derives the lattice and core numbers from the traced
// queries' QueryTraces.
func (b *bench) layerQueries(recs []queryRec) {
	self, total := map[string]float64{}, map[string]float64{}
	var probes, skipped, cands float64
	n := 0
	for _, r := range recs {
		if !r.traced || r.err != nil || r.trace == nil || r.trace.Spans == nil {
			continue
		}
		var v spanView
		raw, err := json.Marshal(r.trace.Spans)
		if err == nil {
			err = json.Unmarshal(raw, &v)
		}
		if err != nil {
			b.problem("query trace: %v", err)
			return
		}
		selfTimes(v, self, total)
		probes += float64(r.trace.Probes)
		skipped += float64(r.trace.Skipped)
		cands += float64(r.trace.Candidates)
		n++
	}
	per := func(x float64) float64 { return ratio(x, float64(n)) }
	l := b.layer
	l["globalindex.resolve_ms"] = per(total["resolve"]) / 1e3
	l["lattice.probes"] = per(probes)
	l["lattice.skipped"] = per(skipped)
	l["core.probe_ms"] = per(self["probe"]) / 1e3
	l["core.merge_ms"] = per(self["merge"]) / 1e3
	l["core.present_ms"] = per(self["present"]) / 1e3
	l["core.candidates"] = per(cands)
}

// runDurableRejoin measures the durable write-through publication and
// then restart cycles: stop a peer, keep writing into its key range,
// reopen its data directory at the same address, and rejoin until the
// delta pull has brought the missed writes over.
func runDurableRejoin(b *bench) error {
	ctx := context.Background()
	root, err := os.MkdirTemp(outDir, "durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	coll := corpusFor(durableDocs)
	cfg := core.Config{HDK: hdkConfigFor(durableDocs), ReplicationFactor: 3}
	rep := 0
	f, err := b.setUp(durableSetups, func() (*fleet, error) {
		rep++
		return setupFleet(ctx, b.tr, durablePeers, cfg, coll, b.seed, filepath.Join(root, fmt.Sprint(rep)))
	})
	if err != nil {
		return err
	}
	defer f.close()
	fmt.Println("# storage engines run with Fsync off, the default")

	var run hdkRun
	pubStart := time.Now()
	err = b.measure(b.traced, func() error {
		var err error
		run, err = f.publishHDK(ctx)
		return err
	})
	pubTime := time.Since(pubStart)
	pubWin := b.win
	b.attempted++
	if err != nil {
		return fmt.Errorf("durable publication: %w", err)
	}

	// Reference answers from peer 0, which is never stopped.
	wl := corpus.GenerateWorkload(coll, corpus.WorkloadParams{NumQueries: durableQueries, MaxTerms: 3, Seed: b.seed + 1})
	before := make([][]postings.DocRef, len(wl.Queries))
	for i, q := range wl.Queries {
		resp, err := f.peers[0].Search(ctx, q.Text(), core.WithTopK(topK), core.WithTimeout(queryTimeout))
		if err != nil {
			return fmt.Errorf("reference query %q: %w", q.Text(), err)
		}
		for _, r := range resp.Results {
			before[i] = append(before[i], r.Ref)
		}
	}

	rng := rand.New(rand.NewSource(b.seed + 6))
	victims := rng.Perm(durablePeers - 1)
	var rejoinMs, ctrlMs, tracedMs, openMs, pulled, manifest []float64
	var replCalls int64
	for c := 0; c < durableCycles; c++ {
		v := victims[c%len(victims)] + 1 // peer 0 stays up: it bootstraps the rejoins
		traced := b.traced && c%2 == 1
		rj, err := b.restartCycle(ctx, f, v, c, traced)
		b.attempted++
		if err != nil {
			b.failed++
			b.problem("restart cycle %d (peer %d): %v", c, v, err)
			continue
		}
		rejoinMs = append(rejoinMs, ms(rj.rejoin))
		if traced {
			tracedMs = append(tracedMs, ms(rj.rejoin))
		} else {
			ctrlMs = append(ctrlMs, ms(rj.rejoin))
		}
		openMs = append(openMs, ms(rj.open))
		pulled = append(pulled, float64(rj.pulled))
		manifest = append(manifest, float64(rj.manifest))
		replCalls += rj.replCalls
	}

	// Every result seen before the first stop must be returned again.
	want, kept := 0, 0
	for i, q := range wl.Queries {
		resp, err := f.peers[0].Search(ctx, q.Text(), core.WithTopK(topK), core.WithTimeout(queryTimeout))
		b.attempted++
		if err != nil {
			b.failed++
			b.problem("query %q after the rejoins: %v", q.Text(), err)
			continue
		}
		got := make(map[postings.DocRef]bool)
		for _, r := range resp.Results {
			got[r.Ref] = true
		}
		for _, ref := range before[i] {
			want++
			if got[ref] {
				kept++
			} else {
				b.problem("query %q lost %v after the rejoins", q.Text(), ref)
			}
		}
	}
	recall := ratio(float64(kept), float64(want))
	if len(rejoinMs) == 0 {
		return fmt.Errorf("no restart cycle completed")
	}

	b.e2e["op_p50_ms"] = median(rejoinMs)
	b.e2e["wire_bytes_per_item"] = ratio(float64(pubWin.sumFam(cBytes)), float64(run.postings))
	b.e2e["rpcs_per_item"] = ratio(float64(pubWin.sumFam(cCalls)), float64(run.postings))
	say("publish_postings_per_s", float64(run.postings)/pubTime.Seconds(), "postings/s")
	say("publish_bytes_per_posting", b.e2e["wire_bytes_per_item"], "B")
	say("rejoin_s", median(rejoinMs)/1e3, "s")
	say("rejoin_recall", recall, "ratio")
	say("failed_frac", ratio(float64(b.failed), float64(b.attempted)), "ratio")

	if b.traced {
		b.layerCommon(len(rejoinMs), 0)
		b.layerHDK([]hdkRun{run})
		l := b.layer
		l["storage.open_ms"] = median(openMs)
		l["replication.calls_per_rejoin"] = ratio(float64(replCalls), float64(len(rejoinMs)))
		l["replication.pulled_keys"] = median(pulled)
		l["replication.manifest_keys"] = median(manifest)
		l["replication.write_through_per_posting"] = ratio(float64(pubWin.fam(famReplication, cCalls)), float64(run.postings))
		if len(ctrlMs) > 0 && len(tracedMs) > 0 {
			l["trace.overhead_frac"] = median(tracedMs)/median(ctrlMs) - 1
		}
	}
	return nil
}

type rejoin struct {
	rejoin, open     time.Duration
	pulled, manifest int64
	replCalls        int64
}

// restartCycle stops peer v, repairs the ring, writes keys into v's
// range, and measures v's restart: reopening its data directory at the
// same address, rejoining, and maintenance rounds until v's store holds
// every key written while it was down.
func (b *bench) restartCycle(ctx context.Context, f *fleet, v, cycle int, traced bool) (rejoin, error) {
	var rj rejoin
	if err := f.peers[v].Close(); err != nil {
		return rj, fmt.Errorf("close: %w", err)
	}
	for r := 0; r < 4; r++ {
		f.maintain(ctx, v)
	}
	pred, self := f.predecessor(v), f.ids[v]
	var fresh []string
	list := &postings.List{}
	list.Add(postings.Posting{Ref: postings.DocRef{Peer: f.addrs[0], Doc: 1}, Score: 1})
	for i := 0; len(fresh) < durableFresh; i++ {
		term := fmt.Sprintf("fresh%d-%d", cycle, i)
		if !ids.Between(ids.HashKey([]string{term}), pred, self) {
			continue
		}
		wctx, cancel := context.WithTimeout(ctx, writeTimeout)
		_, err := f.peers[0].GlobalIndex().Put(wctx, []string{term}, list, 10)
		cancel()
		b.attempted++
		if err != nil {
			b.failed++
			return rj, fmt.Errorf("write while down: %w", err)
		}
		fresh = append(fresh, ids.KeyString([]string{term}))
	}

	// Every open engine starts the rejoin with an empty WAL, so whether
	// the rejoin's own writes trigger a compaction depends on what the
	// rejoin writes, not on how full the earlier cycles left the WALs;
	// a collection first keeps the garbage of the repair rounds out of
	// the timed rejoin.
	for i, e := range f.engines {
		if i != v && e != nil {
			if err := e.CompactNow(); err != nil {
				return rj, fmt.Errorf("compact peer %d: %w", i, err)
			}
		}
	}
	runtime.GC()

	err := b.measure(traced, func() error {
		before := b.tr.snap()
		start := time.Now()
		open, err := f.open(v, string(f.addrs[v]))
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		rj.open = open
		p := f.peers[v]
		for _, di := range f.docsOf[v] {
			// The same documents in the same order get the same local
			// IDs, so references held in the index stay valid.
			if _, err := p.AddDocument(docFromCorpus(f.coll.Docs[di])); err != nil {
				return err
			}
		}
		if err := p.Join(ctx, f.addrs[0]); err != nil {
			return fmt.Errorf("join: %w", err)
		}
		// Maintenance runs peer by peer in ring order from v's
		// predecessor, whose round tells v of its predecessor and so
		// starts the pull; the store is checked after each peer's round.
		order := f.ringOrderFrom(f.predecessor(v))
		for done, calls := has(p, fresh), 0; !done; calls++ {
			if calls == maxRejoinRounds*len(order) {
				return fmt.Errorf("store still misses writes after %d maintenance rounds", maxRejoinRounds)
			}
			f.peers[order[calls%len(order)]].Maintain(ctx)
			done = has(p, fresh)
		}
		rj.rejoin = time.Since(start)
		rj.replCalls = b.tr.snap().sub(before).fam(famReplication, cCalls)
		rj.manifest, rj.pulled = p.GlobalIndex().PullTransferCounts()
		return nil
	})
	return rj, err
}

// has reports whether p's store holds every key.
func has(p *core.Peer, keys []string) bool {
	st := p.GlobalIndex().Store()
	for _, k := range keys {
		if _, ok := st.Peek(k); !ok {
			return false
		}
	}
	return true
}
