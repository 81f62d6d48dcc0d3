package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/docs"
	"repro/internal/globalindex"
	"repro/internal/hdk"
	"repro/internal/ids"
	"repro/internal/localindex"
	"repro/internal/postings"
	"repro/internal/storage"
	"repro/internal/transport"
)

// fleet is a set of in-process peers, each listening on its own
// loopback TCP port, plus the bookkeeping the checks need: which corpus
// document each network reference names, and a centralized BM25 engine
// over the same documents.
type fleet struct {
	tr      *tracer
	cfg     core.Config
	dataDir string // per-peer data directories live below it; "" = memory engines

	ids     []ids.ID
	addrs   []transport.Addr
	peers   []*core.Peer
	engines []*storage.Engine // durable engines by peer; nil entries for memory engines

	coll    *corpus.Collection
	docsOf  [][]int                 // peer index -> corpus doc indexes it hosts
	docOf   map[postings.DocRef]int // network ref -> corpus doc index
	central *baseline.Centralized
}

// hdkConfigFor scales the HDK parameters to the collection the way the
// experiment harness does: DFmax well below the head DFs so expansion
// triggers, TruncK at the paper's order of magnitude.
func hdkConfigFor(numDocs int) hdk.Config {
	return hdk.Config{DFMax: max(numDocs/20, 10), SMax: 3, Window: 30, TruncK: max(numDocs/40, 10)}
}

// datasetSeed fixes the generated document collection: every run
// indexes the same documents, and --seed varies how they are dealt to
// the peers, the ring's rotation, and the traffic. A run's cost then
// does not hinge on how large a collection a seed happened to draw.
const datasetSeed = 1

// corpusFor generates the collection with the experiment harness's
// shape.
func corpusFor(numDocs int) *corpus.Collection {
	return corpus.Generate(corpus.Params{
		NumDocs:    numDocs,
		VocabSize:  numDocs,
		MeanDocLen: 60,
		NumTopics:  20,
		Seed:       datasetSeed,
	})
}

// openFleet starts n peers and installs oracle routing tables, as the
// experiment harness does. The peers sit evenly spaced on the ring (at
// a seeded rotation), so every peer owns an equal share of the key
// space and a run's cost does not hinge on how unevenly random
// identifiers happened to split it.
func openFleet(tr *tracer, n int, cfg core.Config, seed int64, dataDir string) (*fleet, error) {
	rotation := rand.New(rand.NewSource(seed)).Uint64()
	f := &fleet{tr: tr, cfg: cfg, dataDir: dataDir}
	for i := 0; i < n; i++ {
		f.ids = append(f.ids, ids.ID(rotation+uint64(i)*(math.MaxUint64/uint64(n))))
		f.addrs = append(f.addrs, "")
		f.peers = append(f.peers, nil)
		f.engines = append(f.engines, nil)
		if _, err := f.open(i, "127.0.0.1:0"); err != nil {
			f.close()
			return nil, err
		}
	}
	nodes := make([]*dht.Node, n)
	for i, p := range f.peers {
		nodes[i] = p.Node()
	}
	dht.BuildOracleTables(nodes)
	return f, nil
}

// open starts peer i on addr and returns how long opening its storage
// engine took (snapshot load plus WAL replay for a durable engine).
func (f *fleet) open(i int, addr string) (time.Duration, error) {
	d := transport.NewDispatcher()
	h := &handler{tr: f.tr, next: d.Serve}
	tcp, err := transport.ListenTCP(addr, h.serve)
	if err != nil {
		return 0, err
	}
	self := tcp.Addr()
	h.self.Store(&self)
	ep := &endpoint{TCP: tcp, tr: f.tr, self: self}

	start := time.Now()
	var eng globalindex.StorageEngine = globalindex.NewStore(0)
	var durable *storage.Engine
	if f.dataDir != "" {
		se, err := storage.Open(filepath.Join(f.dataDir, fmt.Sprintf("peer%03d", i)), storage.Options{})
		if err != nil {
			_ = tcp.Close()
			return 0, err
		}
		eng, durable = se, se
	}
	openTime := time.Since(start)
	cfg := f.cfg
	cfg.Engine = f.tr.wrapEngine(eng)
	p, err := core.OpenPeer(f.ids[i], ep, d, cfg)
	if err != nil {
		_ = tcp.Close()
		_ = eng.Close()
		return 0, err
	}
	f.addrs[i], f.peers[i], f.engines[i] = self, p, durable
	return openTime, nil
}

func (f *fleet) close() {
	for _, p := range f.peers {
		if p != nil {
			_ = p.Close()
		}
	}
}

func docFromCorpus(d corpus.Doc) *docs.Document {
	return &docs.Document{Name: d.Name, Title: d.Title, Body: d.Body, Access: docs.Access{Public: true}}
}

// distribute deals the collection round-robin over the peers in a
// seeded order (documents stay wholly at one peer, like the paper's
// shared directories) and builds the centralized reference over the
// same documents.
func (f *fleet) distribute(c *corpus.Collection, seed int64) error {
	f.coll = c
	f.docsOf = make([][]int, len(f.peers))
	f.docOf = make(map[postings.DocRef]int, len(c.Docs))
	central := localindex.New(f.peers[0].LocalIndex().Analyzer())
	for k, i := range rand.New(rand.NewSource(seed)).Perm(len(c.Docs)) {
		doc := c.Docs[i]
		pi := k % len(f.peers)
		stored, err := f.peers[pi].AddDocument(docFromCorpus(doc))
		if err != nil {
			return err
		}
		f.docsOf[pi] = append(f.docsOf[pi], i)
		f.docOf[postings.DocRef{Peer: f.addrs[pi], Doc: stored.ID}] = i
		central.Add(uint32(i), doc.Title+"\n"+doc.Body)
	}
	f.central = baseline.NewCentralized(central)
	return nil
}

// setupFleet opens a fleet, deals it the collection and publishes
// every peer's statistics: the state every workload starts from.
func setupFleet(ctx context.Context, tr *tracer, n int, cfg core.Config, c *corpus.Collection, seed int64, dataDir string) (*fleet, error) {
	f, err := openFleet(tr, n, cfg, seed, dataDir)
	if err != nil {
		return nil, err
	}
	if err := f.distribute(c, seed); err != nil {
		f.close()
		return nil, err
	}
	for _, p := range f.peers {
		if err := p.PublishStats(ctx); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// hdkRun is what one lockstep fleet publication did.
type hdkRun struct {
	keys, postings, rounds int
	terms, expand          time.Duration // summed over peers' PublishTerms / ExpandRound calls
}

// publishHDK runs the fleet-synchronized HDK publication from one
// goroutine: every peer publishes its single terms, then expansion
// rounds proceed in lockstep until no peer publishes anything new. Each
// per-peer step is one benchmark operation.
func (f *fleet) publishHDK(ctx context.Context) (hdkRun, error) {
	var run hdkRun
	pubs := make([]*hdk.Publisher, len(f.peers))
	for i, p := range f.peers {
		octx, o := f.tr.startOp(ctx)
		hp, err := p.NewHDKPublisher(octx)
		if err == nil {
			err = hp.PublishTerms(octx)
		}
		run.terms += f.tr.endOp(o, "publish-terms")
		if err != nil {
			return run, fmt.Errorf("publish terms at peer %d: %w", i, err)
		}
		pubs[i] = hp
	}
	for {
		total := 0
		for i, hp := range pubs {
			octx, o := f.tr.startOp(ctx)
			m, err := hp.ExpandRound(octx)
			run.expand += f.tr.endOp(o, "expand-round")
			if err != nil {
				return run, fmt.Errorf("expand round %d at peer %d: %w", run.rounds, i, err)
			}
			total += m
		}
		run.rounds++
		if total == 0 {
			break
		}
	}
	for _, hp := range pubs {
		res := hp.Result()
		run.keys += res.KeysPublished
		run.postings += res.PostingsPublished
	}
	return run, nil
}

// maintain runs one maintenance round on every open peer.
func (f *fleet) maintain(ctx context.Context, skip int) {
	for i, p := range f.peers {
		if i != skip {
			p.Maintain(ctx)
		}
	}
}

// predecessor returns the ring identifier preceding peer i's among the
// fleet's identifiers: peer i owns the keys hashing into (pred, id].
func (f *fleet) predecessor(i int) ids.ID {
	sorted := append([]ids.ID(nil), f.ids...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	at := sort.Search(len(sorted), func(k int) bool { return sorted[k] >= f.ids[i] })
	return sorted[(at+len(sorted)-1)%len(sorted)]
}

// ringOrderFrom returns the peer indexes in clockwise ring order,
// starting with the peer whose identifier is id.
func (f *fleet) ringOrderFrom(id ids.ID) []int {
	order := make([]int, len(f.ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return f.ids[order[a]] < f.ids[order[b]] })
	for k, i := range order {
		if f.ids[i] == id {
			return append(order[k:], order[:k]...)
		}
	}
	return order
}

// checkResults reports an error when a result names no known document
// or a document that contains none of the query's terms.
func (f *fleet) checkResults(query string, results []core.Result, extra map[postings.DocRef]string) error {
	analyzer := f.peers[0].LocalIndex().Analyzer()
	terms := analyzer.UniqueTerms(query)
	for _, r := range results {
		text, ok := extra[r.Ref]
		if !ok {
			di, known := f.docOf[r.Ref]
			if !known {
				return fmt.Errorf("query %q: result %v names no shared document", query, r.Ref)
			}
			text = f.coll.Docs[di].Title + "\n" + f.coll.Docs[di].Body
		}
		docTerms := make(map[string]bool)
		for _, t := range analyzer.UniqueTerms(text) {
			docTerms[t] = true
		}
		hit := false
		for _, t := range terms {
			hit = hit || docTerms[t]
		}
		if !hit {
			return fmt.Errorf("query %q: result %v contains none of [%s]", query, r.Ref, strings.Join(terms, " "))
		}
	}
	return nil
}
