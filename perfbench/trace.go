package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/globalindex"
	"repro/internal/postings"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The tracer observes the program only from outside: it wraps the
// transport endpoint, the request handler given to ListenTCP and the
// storage engine given through Config.Engine. Counts are always kept
// (they are a few atomic adds beside a TCP round trip); timings and
// spans only while tracing is on, the probed-key census only while
// census is on.

// Counter slots. Each frame family has perFam slots: the client side
// counts calls made over the wire (a peer's calls to itself skip the
// network and are not counted), the server side counts requests served
// for remote callers. Timings accrue only while tracing
// is on, each beside a count of the timed events, so a mean stays right
// when tracing is switched on and off within a run.
const (
	cCalls = iota
	cBytes
	cRTTNs
	cRTTTimed
	cUnreachable
	cInterrupted
	cShed
	cRemoteErrs
	cHandled
	cHandleNs
	cHandleTimed
	perFam
)

const (
	cStoreWrites   = int(numFamilies)*perFam + iota // Append, Put, AdoptReplica
	cStorePostings                                  // postings handed to those writes
	cStoreWriteNs
	cStoreWriteTimed
	cStoreReads // Get, GetPrefix
	cStoreReadNs
	cStoreReadTimed
	cWALWritten // durable engines only
	cCompactions
	numCounters
)

func famSlot(f family, c int) int { return int(f)*perFam + c }

// counters is a snapshot of every counter slot; subtract two to get
// what happened between them.
type counters [numCounters]int64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) fam(f family, slot int) int64 { return c[famSlot(f, slot)] }

// sumFam sums one slot over all families.
func (c counters) sumFam(slot int) int64 {
	var n int64
	for f := family(0); f < numFamilies; f++ {
		n += c.fam(f, slot)
	}
	return n
}

// span is one timed interval. Spans of one operation share Req, the
// operation's identifier carried in the caller's context; a call span's
// Parent is its operation's span. Served requests cross TCP, which does
// not carry the identifier, so their spans have Req 0.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	traced atomic.Bool // timings and spans
	census atomic.Bool // probed-key census
	epoch  time.Time
	ids    atomic.Uint64

	c       [numCounters]atomic.Int64
	stallNs atomic.Int64 // longest write during which the WAL was compacted

	mu       sync.Mutex
	spans    []span
	keyReads int
	keySeen  map[string]struct{}
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), keySeen: make(map[string]struct{})}
}

func (tr *tracer) add(slot int, n int64) { tr.c[slot].Add(n) }

func (tr *tracer) snap() counters {
	var c counters
	for i := range c {
		c[i] = tr.c[i].Load()
	}
	return c
}

// resetSpans drops the recorded spans and the key census.
func (tr *tracer) resetSpans() {
	tr.mu.Lock()
	tr.spans = nil
	tr.keyReads = 0
	tr.keySeen = make(map[string]struct{})
	tr.mu.Unlock()
}

func (tr *tracer) record(s span) {
	if s.ID == 0 {
		s.ID = tr.ids.Add(1)
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// writeSpans writes the recorded spans as JSON lines to path.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// op is one benchmark operation (a query, a write, a publication step,
// a rejoin). It rides the caller's context, which the peer keeps for
// every call it makes on the operation's behalf, so the endpoint
// wrapper can charge calls and bytes to it.
type op struct {
	id           uint64
	start        time.Time
	calls, bytes atomic.Int64
}

type opKey struct{}

func (tr *tracer) startOp(ctx context.Context) (context.Context, *op) {
	o := &op{id: tr.ids.Add(1), start: time.Now()}
	return context.WithValue(ctx, opKey{}, o), o
}

// endOp records the operation's span (tracing on) and returns its
// duration.
func (tr *tracer) endOp(o *op, name string) time.Duration {
	end := time.Now()
	if tr.traced.Load() {
		tr.record(span{ID: o.id, Req: o.id, Name: "op:" + name,
			Start: int64(o.start.Sub(tr.epoch)), End: int64(end.Sub(tr.epoch))})
	}
	return end.Sub(o.start)
}

func opFrom(ctx context.Context) *op {
	o, _ := ctx.Value(opKey{}).(*op)
	return o
}

// endpoint wraps the shipped TCP endpoint. Embedding forwards every
// method the peer may look for besides Call — Meter, used by the peer's
// telemetry, included — so a wrapped peer behaves as an unwrapped one.
type endpoint struct {
	*transport.TCP
	tr   *tracer
	self transport.Addr
}

func (e *endpoint) Call(ctx context.Context, to transport.Addr, msgType uint8, body []byte) (uint8, []byte, error) {
	tr := e.tr
	if to == e.self {
		return e.TCP.Call(ctx, to, msgType, body) // never crosses the wire
	}
	fam := familyOf[msgType]
	n := int64(transport.FrameOverhead + budgetBytes(ctx) + len(body))
	start := time.Now()
	rt, resp, err := e.TCP.Call(ctx, to, msgType, body)
	tr.add(famSlot(fam, cCalls), 1)
	switch {
	case err == nil:
		n += int64(transport.FrameOverhead + len(resp))
	case errors.Is(err, transport.ErrUnreachable):
		n = 0 // the request never left
		tr.add(famSlot(fam, cUnreachable), 1)
	case errors.Is(err, transport.ErrCallInterrupted):
		tr.add(famSlot(fam, cInterrupted), 1)
	case errors.Is(err, transport.ErrShed):
		tr.add(famSlot(fam, cShed), 1)
	default:
		tr.add(famSlot(fam, cRemoteErrs), 1)
	}
	tr.add(famSlot(fam, cBytes), n)
	o := opFrom(ctx)
	if o != nil {
		o.calls.Add(1)
		o.bytes.Add(n)
	}
	if tr.traced.Load() {
		end := time.Now()
		tr.add(famSlot(fam, cRTTNs), int64(end.Sub(start)))
		tr.add(famSlot(fam, cRTTTimed), 1)
		s := span{Name: "call:" + fam.String(), Start: int64(start.Sub(tr.epoch)), End: int64(end.Sub(tr.epoch))}
		if o != nil {
			s.Parent, s.Req = o.id, o.id
		}
		tr.record(s)
	}
	return rt, resp, err
}

// budgetBytes is the size of the deadline budget the transport adds to
// a request frame (a varint of the remaining milliseconds).
func budgetBytes(ctx context.Context) int {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := (time.Until(d) + time.Millisecond - 1) / time.Millisecond
	if ms < 1 {
		ms = 1
	}
	return wire.UvarintSize(uint64(ms))
}

// handler wraps the request handler given to ListenTCP. Requests a peer
// sends itself arrive with its own address as the sender and are not
// counted: they never cross the wire.
type handler struct {
	tr   *tracer
	next transport.Handler
	self atomic.Pointer[transport.Addr]
}

func (h *handler) serve(ctx context.Context, from transport.Addr, msgType uint8, body []byte) (uint8, []byte, error) {
	if self := h.self.Load(); self != nil && from == *self {
		return h.next(ctx, from, msgType, body)
	}
	tr := h.tr
	fam := familyOf[msgType]
	tr.add(famSlot(fam, cHandled), 1)
	if !tr.traced.Load() {
		return h.next(ctx, from, msgType, body)
	}
	start := time.Now()
	rt, resp, err := h.next(ctx, from, msgType, body)
	end := time.Now()
	tr.add(famSlot(fam, cHandleNs), int64(end.Sub(start)))
	tr.add(famSlot(fam, cHandleTimed), 1)
	tr.record(span{Name: "handle:" + fam.String(), Start: int64(start.Sub(tr.epoch)), End: int64(end.Sub(tr.epoch))})
	return rt, resp, err
}

// walSized is the optional engine method the peer's telemetry looks for.
type walSized interface{ WALSize() int64 }

// engine wraps a storage engine, timing its writes and reads. The
// interface embedding forwards everything else.
type engine struct {
	globalindex.StorageEngine
	tr  *tracer
	wal walSized // the durable engine's WAL size; nil for memory engines
}

// walEngine is the wrapper of an engine that reports its WAL size; it
// forwards WALSize so the peer finds the method exactly when the
// wrapped engine has it.
type walEngine struct{ *engine }

func (e walEngine) WALSize() int64 { return e.wal.WALSize() }

func (tr *tracer) wrapEngine(e globalindex.StorageEngine) globalindex.StorageEngine {
	te := &engine{StorageEngine: e, tr: tr}
	if w, ok := e.(walSized); ok {
		te.wal = w
		return walEngine{te}
	}
	return te
}

type writeMark struct {
	start time.Time
	wal   int64
	timed bool
}

func (e *engine) beginWrite() writeMark {
	if !e.tr.traced.Load() {
		return writeMark{}
	}
	m := writeMark{start: time.Now(), timed: true}
	if e.wal != nil {
		m.wal = e.wal.WALSize()
	}
	return m
}

func (e *engine) endWrite(m writeMark, list *postings.List) {
	tr := e.tr
	tr.add(cStoreWrites, 1)
	tr.add(cStorePostings, int64(list.Len()))
	if !m.timed {
		return
	}
	d := int64(time.Since(m.start))
	tr.add(cStoreWriteNs, d)
	tr.add(cStoreWriteTimed, 1)
	if e.wal == nil {
		return
	}
	after := e.wal.WALSize()
	if after >= m.wal {
		tr.add(cWALWritten, after-m.wal)
		return
	}
	// The WAL shrank: this write triggered a compaction into a snapshot,
	// and the new WAL holds what was written after it.
	tr.add(cWALWritten, after)
	tr.add(cCompactions, 1)
	for {
		cur := tr.stallNs.Load()
		if d <= cur || tr.stallNs.CompareAndSwap(cur, d) {
			break
		}
	}
}

func (e *engine) Append(key string, list *postings.List, bound, announcedDF int) int {
	m := e.beginWrite()
	n := e.StorageEngine.Append(key, list, bound, announcedDF)
	e.endWrite(m, list)
	return n
}

func (e *engine) Put(key string, list *postings.List, bound int) int {
	m := e.beginWrite()
	n := e.StorageEngine.Put(key, list, bound)
	e.endWrite(m, list)
	return n
}

func (e *engine) AdoptReplica(key string, list *postings.List, approxDF int64) int {
	m := e.beginWrite()
	n := e.StorageEngine.AdoptReplica(key, list, approxDF)
	e.endWrite(m, list)
	return n
}

func (e *engine) beginRead(key string, probe bool) (time.Time, bool) {
	tr := e.tr
	tr.add(cStoreReads, 1)
	if probe && tr.census.Load() {
		tr.mu.Lock()
		tr.keyReads++
		tr.keySeen[key] = struct{}{}
		tr.mu.Unlock()
	}
	if !tr.traced.Load() {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (e *engine) endRead(start time.Time, timed bool) {
	if timed {
		e.tr.add(cStoreReadNs, int64(time.Since(start)))
		e.tr.add(cStoreReadTimed, 1)
	}
}

func (e *engine) Get(key string, maxResults int) (*postings.List, bool, bool) {
	start, timed := e.beginRead(key, true)
	list, found, want := e.StorageEngine.Get(key, maxResults)
	e.endRead(start, timed)
	return list, found, want
}

func (e *engine) GetPrefix(key string, offset, limit int) globalindex.PrefixResult {
	start, timed := e.beginRead(key, offset == 0)
	r := e.StorageEngine.GetPrefix(key, offset, limit)
	e.endRead(start, timed)
	return r
}
