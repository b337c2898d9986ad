package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	growt "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/tables"
)

// Boundary spans, recorded from outside the program. A traced run
// samples 1 op in 64 at the workload's entry point (the "request"
// span), then replays the identical operation against in-process twins
// that hold the same data, one twin per lower boundary, each replay a
// child span with the request's id. Every row has its own twin so each
// replay meets its table as cold as the real request met the real one;
// rows sharing one table would hand each other warm cache lines and the
// differences between rows would be noise. Spans stay in memory until
// the run ends.

type spanName uint8

const (
	spRequest spanName = iota
	spCacheGet
	spCacheSet
	spMapLoad
	spMapStore
	spSessionLoad
	spSessionStore
	spHandleLoad
	spHandleStore
	spWordFind
	spWordUpsert
	spFullKeysFind
	spFullKeysUpsert
	spCoreFind
	spCoreUpsert
	spClock // two clock reads and nothing else: the cost every span carries
	numSpanNames
)

// spanInfo names each span and lists, nearest first, the boundaries
// that call it; a span's parent is the first of them present in its
// request. Replayed children run after their parent has ended: the
// nesting says which boundary calls which, not that the intervals
// contain each other.
var spanInfo = [numSpanNames]struct {
	name    string
	parents []spanName
}{
	spRequest:        {"request", nil},
	spCacheGet:       {"cache.get", []spanName{spRequest}},
	spCacheSet:       {"cache.set", []spanName{spRequest}},
	spMapLoad:        {"facade.generic_map_load", []spanName{spRequest}},
	spMapStore:       {"facade.generic_map_store", []spanName{spRequest}},
	spSessionLoad:    {"facade.generic_session_load", []spanName{spCacheGet, spRequest}},
	spSessionStore:   {"facade.generic_session_store", []spanName{spCacheSet, spRequest}},
	spHandleLoad:     {"facade.generic_handle_load", []spanName{spSessionLoad, spMapLoad}},
	spHandleStore:    {"facade.generic_handle_store", []spanName{spSessionStore, spMapStore}},
	spWordFind:       {"facade.word_find", []spanName{spRequest}},
	spWordUpsert:     {"facade.word_upsert", []spanName{spRequest}},
	spFullKeysFind:   {"core.fullkeys_find", []spanName{spHandleLoad, spWordFind}},
	spFullKeysUpsert: {"core.fullkeys_upsert", []spanName{spHandleStore, spWordUpsert}},
	spCoreFind:       {"core.find", []spanName{spFullKeysFind}},
	spCoreUpsert:     {"core.upsert", []spanName{spFullKeysUpsert}},
	spClock:          {"clock", nil},
}

type span struct {
	name       spanName
	req        int64
	start, end int64
}

// spanBuf is one goroutine's span log.
type spanBuf struct{ spans []span }

func (b *spanBuf) add(name spanName, req, start, end int64) {
	b.spans = append(b.spans, span{name, req, start, end})
}

// tracer owns the span logs and the twins of one traced run. Generator
// g writes gen[g]; the reader goroutine of g's connection writes
// reader[g].
type tracer struct {
	on     bool // sampling enabled; off during the untraced part of the window
	reqs   atomic.Int64
	gen    []spanBuf
	reader []spanBuf
	lad    []*ladder
}

func newTracer(generators int) *tracer {
	t := &tracer{gen: make([]spanBuf, generators), reader: make([]spanBuf, generators)}
	for i := range t.gen {
		t.gen[i].spans = make([]span, 0, 1<<18)
		t.reader[i].spans = make([]span, 0, 1<<16)
	}
	return t
}

func (t *tracer) nextReq() int64 { return t.reqs.Add(1) }

// replay runs generator g's ladder for one sampled op.
func (t *tracer) replay(g int, req int64, key uint64, set bool) {
	t.lad[g].replay(&t.gen[g], req, key, set)
}

// twins are the in-process tables the generic-key ladder replays
// against: one per boundary, all fed the same keys.
type twins struct {
	hash       func(server.Key) uint64
	coreT      *core.Grow
	fk         *core.FullKeys
	handleMap  *growt.Map[server.Key, string]
	sessionMap *growt.Map[server.Key, string]
	mapMap     *growt.Map[server.Key, string] // nil: the workload's own table is this row
	store      *server.Store                  // nil: no cache layer on this workload
}

func newFullKeys() *core.FullKeys {
	return core.NewFullKeys(func() tables.Interface { return core.NewGrow(core.UA, 4096) })
}

// genericMap builds the table shape growd serves: named-string keys on
// the growing generic route, hashed with maphash as server.NewStore does.
func genericMap(seed maphash.Seed) *growt.Map[server.Key, string] {
	return growt.New[server.Key, string](growt.WithHasher(func(k server.Key) uint64 {
		return maphash.String(seed, string(k))
	}))
}

// newTwins builds the ladder's tables; withCache adds a cache twin built
// with the server's own constructor and opts.
func newTwins(withMap, withCache bool, opts ...growt.Option) *twins {
	seed := maphash.MakeSeed()
	tw := &twins{
		hash:       func(k server.Key) uint64 { return maphash.String(seed, string(k)) },
		coreT:      core.NewGrow(core.UA, 4096),
		fk:         newFullKeys(),
		handleMap:  genericMap(seed),
		sessionMap: genericMap(seed),
	}
	if withMap {
		tw.mapMap = genericMap(seed)
	}
	if withCache {
		tw.store = server.NewStore(opts...)
	}
	return tw
}

func (tw *twins) close() {
	tw.coreT.Close()
	tw.fk.Close()
	tw.handleMap.Close()
	tw.sessionMap.Close()
	if tw.mapMap != nil {
		tw.mapMap.Close()
	}
	if tw.store != nil {
		tw.store.Close()
	}
}

// coreKey folds a 64-bit hash into the raw core's key domain
// (1..MaxKey); the FullKeys wrapper exists so callers above it need not.
func coreKey(h uint64) uint64 {
	k := h &^ (1 << 63)
	if k == 0 || k > core.MaxKey {
		return 1
	}
	return k
}

// ladder is one generator's private accessors to the twins (handles and
// sessions are goroutine-private).
type ladder struct {
	tw      *twins
	coreH   tables.Handle
	fkH     tables.Handle
	handle  *growt.Handle[server.Key, string]
	session *growt.Session[server.Key, string]
	cs      *cache.Session[server.Key, string]
}

func (tw *twins) ladder() *ladder {
	l := &ladder{
		tw:      tw,
		coreH:   tw.coreT.Handle(),
		fkH:     tw.fk.Handle(),
		handle:  tw.handleMap.Handle(),
		session: tw.sessionMap.Session(),
	}
	if tw.store != nil {
		l.cs = tw.store.C.NewSession()
	}
	return l
}

func (l *ladder) close() {
	l.session.Close()
	if l.cs != nil {
		l.cs.Close()
	}
}

// fill stores key word w in every twin, untimed: how twins come to hold
// the workload's data.
func (l *ladder) fill(w uint64) {
	k := server.Key(keyBytes(w))
	v := string(valueFor(w))
	h := l.tw.hash(k)
	l.coreH.InsertOrUpdate(coreKey(h), 1, tables.Overwrite)
	l.fkH.InsertOrUpdate(h, 1, tables.Overwrite)
	l.handle.InsertOrUpdate(k, v, growt.Replace[string])
	l.session.Store(k, v)
	if l.tw.mapMap != nil {
		l.tw.mapMap.Store(k, v)
	}
	if l.cs != nil {
		l.cs.Set(k, v)
	}
}

// replay times one op at every boundary, top down.
func (l *ladder) replay(b *spanBuf, req int64, w uint64, set bool) {
	k := server.Key(keyBytes(w))
	h := l.tw.hash(k)
	ck := coreKey(h)
	s := nanos()
	b.add(spClock, req, s, nanos())
	if set {
		v := string(valueFor(w))
		if l.cs != nil {
			s = nanos()
			l.cs.Set(k, v)
			b.add(spCacheSet, req, s, nanos())
		}
		if l.tw.mapMap != nil {
			s = nanos()
			l.tw.mapMap.Store(k, v)
			b.add(spMapStore, req, s, nanos())
		}
		s = nanos()
		l.session.Store(k, v)
		b.add(spSessionStore, req, s, nanos())
		s = nanos()
		l.handle.InsertOrUpdate(k, v, growt.Replace[string])
		b.add(spHandleStore, req, s, nanos())
		s = nanos()
		l.fkH.InsertOrUpdate(h, 1, tables.Overwrite)
		b.add(spFullKeysUpsert, req, s, nanos())
		s = nanos()
		l.coreH.InsertOrUpdate(ck, 1, tables.Overwrite)
		b.add(spCoreUpsert, req, s, nanos())
		return
	}
	if l.cs != nil {
		s = nanos()
		l.cs.Get(k)
		b.add(spCacheGet, req, s, nanos())
	}
	if l.tw.mapMap != nil {
		s = nanos()
		l.tw.mapMap.Load(k)
		b.add(spMapLoad, req, s, nanos())
	}
	s = nanos()
	l.session.Load(k)
	b.add(spSessionLoad, req, s, nanos())
	s = nanos()
	l.handle.Find(k)
	b.add(spHandleLoad, req, s, nanos())
	s = nanos()
	l.fkH.Find(h)
	b.add(spFullKeysFind, req, s, nanos())
	s = nanos()
	l.coreH.Find(ck)
	b.add(spCoreFind, req, s, nanos())
}

// spanTable gathers every log's spans by name, as sorted durations.
type spanTable [numSpanNames][]uint32

func (t *tracer) table() *spanTable {
	var st spanTable
	for _, bufs := range [][]spanBuf{t.gen, t.reader} {
		for i := range bufs {
			for _, sp := range bufs[i].spans {
				st[sp.name] = append(st[sp.name], satNanos(sp.end-sp.start))
			}
		}
	}
	for i := range st {
		slices.Sort(st[i])
	}
	return &st
}

// ns is the median duration of a row, less the median cost of the two
// clock reads every span carries; 0 when the row never ran.
func (st *spanTable) ns(name spanName) float64 {
	if len(st[name]) == 0 {
		return 0
	}
	return max(0, percentile(st[name], 0.5)-percentile(st[spClock], 0.5))
}

// self is a row less its child. Medians of separate samples can cross
// by a nanosecond or two when a layer is a bare forwarding call; that
// is reported as 0, not as negative time.
func (st *spanTable) self(row, child spanName) float64 {
	if len(st[row]) == 0 {
		return 0
	}
	return max(0, st.ns(row)-st.ns(child))
}

// traceSpan is one span as written to out/trace-<workload>.json.
type traceSpan struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent"`
	Req     int64  `json:"req"`
}

// maxSpansWritten bounds the span file. Every span counts towards the
// metrics; the file is for reading individual requests, and the first
// few thousand show what there is to see.
const maxSpansWritten = 24_000

// write stores spans in <dir>/trace-<workload>.json, ordered by request
// id then start time.
func (t *tracer) write(dir, workload string) error {
	var all []span
	for _, bufs := range [][]spanBuf{t.gen, t.reader} {
		for i := range bufs {
			all = append(all, bufs[i].spans...)
		}
	}
	slices.SortFunc(all, func(a, b span) int {
		return cmp.Or(cmp.Compare(a.req, b.req), cmp.Compare(a.start, b.start))
	})
	all = all[:min(len(all), maxSpansWritten)]
	out := make([]traceSpan, len(all))
	for lo := 0; lo < len(all); {
		hi := lo
		var present [numSpanNames]bool
		for hi < len(all) && all[hi].req == all[lo].req {
			present[all[hi].name] = true
			hi++
		}
		for i := lo; i < hi; i++ {
			sp := all[i]
			parent := ""
			for _, p := range spanInfo[sp.name].parents {
				if present[p] {
					parent = spanInfo[p].name
					break
				}
			}
			out[i] = traceSpan{spanInfo[sp.name].name, sp.start, sp.end, parent, sp.req}
		}
		lo = hi
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
