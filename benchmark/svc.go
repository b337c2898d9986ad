package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	growt "repro"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/server"
	"repro/internal/server/client"
)

// The three served workloads. Each set-up starts a fresh growd,
// prefills it, generates the op streams and dials one connection per
// generator; each measured phase is bracketed by STATS scrapes taken
// while nothing is in flight, so server-side counter deltas cover
// exactly the operations the clients completed.

const (
	sliceSeconds = 0.5  // svc-* timings are medians over slices this long
	latLimitUs   = 1000 // svc-open: a rung meets the limit when its p99 is at or under this
	churnTTL     = 2 * time.Second
	churnSweep   = 250 * time.Millisecond
)

// openRungs are svc-open's offered rates in ops/s, lowest first, frozen
// so later commits are compared at the same offered load. The issue
// wanted the middle rung at half of svc-read's closed-loop ops_per_s;
// on this box an open-loop request travels alone and its latency is
// three thread wake-ups, so the knee is far lower and the rungs with it.
var openRungs = [3]float64{10_000, 20_000, 40_000}

// latRung is the rung the end-to-end latency is read at: the bottom one.
// The box's wake-up cost drifts by a fifth within the hour, and the
// nearer a rung is to the knee the more that drift is amplified into
// latency (at 40 000 ops/s the median moved by a third on unchanged
// code); at the bottom rung a request meets no queue and the drift
// passes through one to one.
const latRung = 0

// openShare splits svc-open's window over the rungs; latRung gets the
// most, since its median carries a bound.
var openShare = [3]float64{0.6, 0.2, 0.2}

// svcSpec is what distinguishes one served workload's set-up.
type svcSpec struct {
	growdArgs []string
	opts      []growt.Option // the same configuration, for the cache twin
	prefill   bool
	writePct  int
	churn     bool
	slots     int
}

var (
	svcReadSpec = svcSpec{prefill: true, writePct: 5, slots: closedDepth}
	svcOpenSpec = svcSpec{prefill: true, writePct: 5, slots: openSlots}
)

func svcChurnSpec(cfg *config) svcSpec {
	return svcSpec{
		growdArgs: []string{
			"-default-ttl", churnTTL.String(),
			"-max-entries", fmt.Sprint(cfg.sz.churnBudget),
			"-sweep-interval", churnSweep.String(),
		},
		opts: []growt.Option{
			growt.WithTTL(churnTTL),
			growt.WithMaxEntries(uint64(cfg.sz.churnBudget)),
			growt.WithSweepInterval(churnSweep),
		},
		writePct: 50, churn: true, slots: closedDepth,
	}
}

// svcEnv is one set-up served workload.
type svcEnv struct {
	cfg   *config
	spec  svcSpec
	g     *growd
	debug string // growd's -debug address (traced svc-churn only)
	ctl   *client.Client
	conns []*genConn
	keys  []uint64
	tr    *tracer
	tw    *twins
}

func setupSvc(cfg *config, spec svcSpec) (*svcEnv, error) {
	if cfg.growdBin == "" {
		return nil, errors.New("no growd binary: run through benchmark/run.sh, or pass -growd")
	}
	e := &svcEnv{cfg: cfg, spec: spec}
	args := spec.growdArgs
	if cfg.trace && spec.churn {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		e.debug = addr
		args = append(slices.Clone(args), "-debug", addr)
	}
	g, err := startGrowd(cfg.growdBin, args...)
	if err != nil {
		return nil, err
	}
	e.g = g
	if err := e.connect(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *svcEnv) connect() error {
	cfg, spec := e.cfg, e.spec
	var err error
	if e.ctl, err = client.Dial(e.g.addr); err != nil {
		return fmt.Errorf("dial control connection: %w", err)
	}
	universe := uint64(cfg.sz.svcKeys)
	if spec.churn {
		universe = cfg.sz.churnSpan
	}
	if spec.prefill {
		e.keys = make([]uint64, cfg.sz.svcKeys)
		for i := range e.keys {
			e.keys[i] = keyWord(cfg.seed, uint64(i))
		}
		if err := e.prefill(); err != nil {
			return err
		}
	}
	// Enough ops that a stream does not wrap inside one run at several
	// times the probed rate; it wraps rather than ends if it does.
	perConn := int(max(cfg.seconds, 1)*300_000) / procs
	for i := 0; i < procs; i++ {
		c, err := newGenConn(i, e.g.addr, spec.slots)
		if err != nil {
			return fmt.Errorf("dial generator %d: %w", i, err)
		}
		e.conns = append(e.conns, c)
		c.ops = opStream(cfg.seed, i, perConn, universe, spec.writePct)
		if spec.churn {
			c.next, c.missOK = churnNext(cfg.seed), true
		} else {
			c.next = staticNext(e.keys)
		}
	}
	if cfg.trace {
		e.tw = newTwins(true, true, spec.opts...)
		e.tr = newTracer(procs)
		for _, c := range e.conns {
			l := e.tw.ladder()
			e.tr.lad = append(e.tr.lad, l)
			c.tr, c.feed = e.tr, spec.churn
		}
		// Each generator's ladder loads its share of the prefilled keys.
		var wg sync.WaitGroup
		for g, l := range e.tr.lad {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < len(e.keys); i += procs {
					l.fill(e.keys[i])
				}
			}()
		}
		wg.Wait()
	}
	return nil
}

// prefill stores every key through MSET batches on the control
// connection.
func (e *svcEnv) prefill() error {
	const batch = 512
	pairs := make([][2][]byte, 0, batch)
	for i, w := range e.keys {
		pairs = append(pairs, [2][]byte{keyBytes(w), valueFor(w)})
		if len(pairs) == batch || i == len(e.keys)-1 {
			if err := e.ctl.MSet(pairs...); err != nil {
				return fmt.Errorf("prefill: %w", err)
			}
			pairs = pairs[:0]
		}
	}
	n, err := e.ctl.Size()
	if err != nil {
		return fmt.Errorf("prefill: %w", err)
	}
	if n != uint64(len(e.keys)) {
		return fmt.Errorf("prefill: growd holds %d keys, want %d", n, len(e.keys))
	}
	return nil
}

func (e *svcEnv) close() {
	for _, c := range e.conns {
		c.cl.Close()
	}
	if e.ctl != nil {
		e.ctl.Close()
	}
	if e.tr != nil {
		for _, l := range e.tr.lad {
			l.close()
		}
		e.tw.close()
	}
	e.g.stop()
}

// mark is the server's state at a quiescent instant.
type mark struct {
	at   time.Time
	snap obs.Snapshot
	cpu  float64 // growd user+system seconds
	self float64 // driver user+system seconds
}

func (e *svcEnv) mark() (mark, error) {
	snap, err := e.ctl.Stats()
	if err != nil {
		return mark{}, fmt.Errorf("STATS: %w", err)
	}
	cpu, err := cpuSeconds(e.g.pid())
	if err != nil {
		return mark{}, err
	}
	return mark{at: time.Now(), snap: snap, cpu: cpu, self: selfCPUSeconds()}, nil
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// phase is one measured stretch of load between two marks.
type phase struct {
	before, after mark
	slices        [][]uint32
	sliceDur      float64
	done, failed  int64 // answered; failed checks, including ops never answered
	unanswered    int64 // never sent or never answered: attempted, not done
	gets, hits    int64
	newKeys       int64
	open          []openStats // per generator, open-loop phases only
}

// collect folds the generators' counters into the phase and checks the
// server counted exactly the operations the clients completed: every
// request reached exec once and was answered once.
func (e *svcEnv) collect(p *phase, recs []*recorder) {
	// An op never sent or never answered missed any latency limit.
	p.failed += p.unanswered
	for _, c := range e.conns {
		p.done += c.done.Load()
		p.failed += c.failed
		p.gets += c.gets
		p.hits += c.hits
		p.newKeys += c.newKeys
	}
	if recs != nil {
		p.slices = mergeSlices(recs)
	}
	// The closing STATS request counted itself before it took its
	// snapshot; the opening one is inside the opening snapshot.
	served := int64(p.after.snap.Counter("growd_ops_total")-p.before.snap.Counter("growd_ops_total")) - 1
	if served != p.done {
		fmt.Printf("# server.ops mismatch: growd executed %d, clients completed %d\n", served, p.done)
		p.failed++
	}
}

func (p *phase) attempted() int64 { return p.done + p.unanswered }

// closedPhase runs every generator closed-loop for seconds.
func (e *svcEnv) closedPhase(seconds float64, record bool) (*phase, error) {
	p := &phase{sliceDur: sliceSeconds}
	n := max(1, int(seconds/sliceSeconds))
	if e.cfg.smoke {
		n, p.sliceDur = 2, seconds/2
	}
	var recs []*recorder
	var err error
	if p.before, err = e.mark(); err != nil {
		return nil, err
	}
	winStart := nanos()
	for _, c := range e.conns {
		var rec *recorder
		if record {
			rec = newRecorder(n, int(150_000*p.sliceDur))
			recs = append(recs, rec)
		}
		c.begin(rec, winStart, int64(p.sliceDur*1e9))
	}
	lost := make([]int, len(e.conns))
	parallel(e.conns, func(c *genConn) { lost[c.id] = c.runClosed(int64(seconds * 1e9)) })
	if p.after, err = e.mark(); err != nil {
		return nil, err
	}
	for _, l := range lost {
		p.unanswered += int64(l)
	}
	e.collect(p, recs)
	return p, nil
}

// openPhase offers rate ops/s for seconds on a fixed schedule, split
// evenly over the generators and interleaved. The first slice is
// warm-up: its samples are dropped.
func (e *svcEnv) openPhase(rate, seconds float64) (*phase, error) {
	nSlices := max(3, int(seconds/sliceSeconds))
	p := &phase{sliceDur: seconds / float64(nSlices)}
	gap := int64(1e9 * float64(len(e.conns)) / rate)
	perConn := int(rate * seconds / float64(len(e.conns)))
	var recs []*recorder
	var err error
	if p.before, err = e.mark(); err != nil {
		return nil, err
	}
	for range e.conns {
		recs = append(recs, newRecorder(nSlices, perConn/nSlices*2))
	}
	// The schedule starts a little ahead so both generators are waiting
	// on their timers when the first op falls due.
	winStart := nanos() + int64(2*time.Millisecond)
	for i, c := range e.conns {
		c.begin(recs[i], winStart, int64(p.sliceDur*1e9))
		c.notBefore = winStart + int64(p.sliceDur*1e9)
	}
	p.open = make([]openStats, len(e.conns))
	errs := make([]error, len(e.conns))
	parallel(e.conns, func(c *genConn) {
		p.open[c.id], errs[c.id] = c.runOpen(perConn, gap, gap*int64(c.id)/int64(len(e.conns)))
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if p.after, err = e.mark(); err != nil {
		return nil, err
	}
	for _, st := range p.open {
		p.unanswered += int64(st.dropped + st.lost)
	}
	e.collect(p, recs)
	p.slices = p.slices[1:]
	return p, nil
}

// opsPerS is the median over slices of completions per second.
func (p *phase) opsPerS() float64 {
	var vals []float64
	for _, s := range p.slices {
		vals = append(vals, float64(len(s))/p.sliceDur)
	}
	return median(vals)
}

func (p *phase) latUs(q float64) float64 { return slicePercentile(p.slices, q) / 1e3 }

// lagP99Us is how late the open-loop generators ran: the 99th
// percentile of actual minus due send time.
func (p *phase) lagP99Us() float64 {
	var all []uint32
	for _, st := range p.open {
		all = append(all, st.lag...)
	}
	slices.Sort(all)
	return percentile(all, 0.99) / 1e3
}

// backlogGrew reports whether requests in flight kept rising across an
// open-loop rung: the last quarter's mean against the second quarter's.
func (p *phase) backlogGrew() bool {
	var early, late, ne, nl int64
	for _, st := range p.open {
		early, ne = early+st.inflight[1], ne+st.sends[1]
		late, nl = late+st.inflight[3], nl+st.sends[3]
	}
	if ne == 0 || nl == 0 {
		return false
	}
	return float64(late)/float64(nl) > 2*float64(early)/float64(ne)+8
}

// rungOK applies svc-open's limit to one rung. A rung the generator
// could not offer on time is invalid: it proves nothing either way.
func (p *phase) rungOK() (ok, valid bool) {
	valid = p.lagP99Us() <= latLimitUs/10
	return valid && p.failed == 0 && !p.backlogGrew() && p.latUs(0.99) <= latLimitUs, valid
}

func (e *svcEnv) endToEnd(out *outcome, setupS float64, p, lat *phase) error {
	rss, err := rssMB(e.g.pid())
	if err != nil {
		return err
	}
	out.set("setup_s", setupS)
	out.set("ops_per_s", p.opsPerS())
	out.set("lat_p50_us", lat.latUs(0.50))
	out.set("rss_mb", rss)
	return nil
}

func runSvcRead(cfg *config) (*outcome, error) {
	e, setupS, err := setupRepeated(cfg, 3, func() (*svcEnv, error) { return setupSvc(cfg, svcReadSpec) }, (*svcEnv).close)
	if err != nil {
		return nil, err
	}
	defer e.close()
	return e.runClosedWorkload(setupS, cfg.seconds/10)
}

func runSvcChurn(cfg *config) (*outcome, error) {
	e, setupS, err := setupRepeated(cfg, 3, func() (*svcEnv, error) { return setupSvc(cfg, svcChurnSpec(cfg)) }, (*svcEnv).close)
	if err != nil {
		return nil, err
	}
	defer e.close()
	// Expiry and eviction are both at work only once entries older than
	// the TTL exist, so the warm-up outlasts it.
	warm := max(cfg.seconds/6, 1.25*churnTTL.Seconds())
	if cfg.smoke {
		warm = cfg.seconds / 6
	}
	return e.runClosedWorkload(setupS, warm)
}

// runClosedWorkload is svc-read and svc-churn: warm-up, then the
// measured window. Untraced, the window is one phase. Traced, its first
// quarter runs with sampling off (the yardstick for tracing overhead),
// the next quarter and the remaining half with sampling on; the live
// heap is read after a forced collection at both ends of the last
// stretch.
func (e *svcEnv) runClosedWorkload(setupS, warm float64) (*outcome, error) {
	cfg := e.cfg
	out := newOutcome()
	if _, err := e.closedPhase(warm, false); err != nil {
		return nil, err
	}
	if !cfg.trace {
		p, err := e.closedPhase(cfg.seconds, true)
		if err != nil {
			return nil, err
		}
		out.attempted, out.failed = p.attempted(), p.failed
		return out, e.endToEnd(out, setupS, p, p)
	}

	plain, err := e.closedPhase(cfg.seconds/4, true)
	if err != nil {
		return nil, err
	}
	e.tr.on = true
	first, err := e.closedPhase(cfg.seconds/4, true)
	if err != nil {
		return nil, err
	}
	live0 := e.liveHeap()
	p, err := e.closedPhase(cfg.seconds/2, true)
	if err != nil {
		return nil, err
	}
	live1 := e.liveHeap()
	e.tr.on = false

	out.attempted = plain.attempted() + first.attempted() + p.attempted()
	out.failed = plain.failed + first.failed + p.failed
	e.layerMetrics(out, p)
	out.set("loadgen.trace_overhead_ratio", ratio(p.opsPerS(), plain.opsPerS()))
	if e.spec.churn {
		out.set("retained_bytes_per_new_key", ratio(live1-live0, float64(p.newKeys)))
	}
	zeroUnset(out)
	return out, e.tr.write(cfg.outDir, cfg.workload)
}

func runSvcOpen(cfg *config) (*outcome, error) {
	e, setupS, err := setupRepeated(cfg, 3, func() (*svcEnv, error) { return setupSvc(cfg, svcOpenSpec) }, (*svcEnv).close)
	if err != nil {
		return nil, err
	}
	defer e.close()
	out := newOutcome()
	if e.tr != nil {
		e.tr.on = true
	}
	var rungs [3]*phase
	slo := 0.0
	for i, rate := range openRungs {
		if cfg.smoke {
			rate /= 10
		}
		p, err := e.openPhase(rate, cfg.seconds*openShare[i])
		if err != nil {
			return nil, err
		}
		rungs[i] = p
		out.attempted += p.attempted()
		out.failed += p.failed
		ok, valid := p.rungOK()
		fmt.Printf("# rung %d: offered %.0f/s delivered %.0f/s p50 %.1f us p99 %.1f us lag_p99 %.1f us valid=%t ok=%t\n",
			i+1, rate, p.opsPerS(), p.latUs(0.5), p.latUs(0.99), p.lagP99Us(), valid, ok)
		if ok {
			slo = rate
		}
	}
	if !cfg.trace {
		return out, e.endToEnd(out, setupS, rungs[2], rungs[latRung])
	}
	e.tr.on = false
	e.layerMetrics(out, rungs[latRung])
	out.set("slo_rate_ops_s", slo)
	out.set("client.open_p99_us_r1", rungs[0].latUs(0.99))
	out.set("client.open_p99_us_r3", rungs[2].latUs(0.99))
	out.set("loadgen.lag_p99_us", max(rungs[0].lagP99Us(), rungs[1].lagP99Us(), rungs[2].lagP99Us()))
	// An open loop's throughput is its offered rate, so the cost of
	// tracing shows as delivered over offered at the top rung.
	out.set("loadgen.trace_overhead_ratio", ratio(rungs[2].opsPerS(), openRungs[2]))
	zeroUnset(out)
	return out, e.tr.write(cfg.outDir, cfg.workload)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeap returns growd's live heap in bytes right after a collection
// forced through its pprof endpoint, or 0 when growd has no debug
// listener. Between collections the runtime's figure swings by up to
// the whole live heap, which would drown the growth being measured.
func (e *svcEnv) liveHeap() float64 {
	if e.debug == "" {
		return 0
	}
	resp, err := http.Get("http://" + e.debug + "/debug/pprof/heap?gc=1")
	if err != nil {
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body) // only the collection it triggered matters
	resp.Body.Close()
	snap, err := e.ctl.Stats()
	if err != nil {
		return 0
	}
	return float64(snap.Gauge("go_heap_live_bytes"))
}

// layerMetrics fills every per-layer metric a served workload defines
// from phase p (counter deltas, client-side samples), the span table,
// and a set of probes run now, on the idle server.
func (e *svcEnv) layerMetrics(out *outcome, p *phase) {
	d := p.after.snap.Sub(p.before.snap)
	st := e.tr.table()
	ops := float64(max(p.done, 1))

	out.set("lat_p99_us", p.latUs(0.99))
	out.set("fail_ratio", ratio(float64(out.failed), float64(out.attempted)))
	out.set("hit_ratio", ratio(float64(p.hits), float64(p.gets)))

	setSpanRows(out, st)
	migrationMetrics(out, d, float64(p.newKeys))

	out.set("cache.hits", float64(d.Counter("growt_cache_hits_total")))
	out.set("cache.misses", float64(d.Counter("growt_cache_misses_total")))
	out.set("cache.expired", float64(d.Counter("growt_cache_expired_total")))
	out.set("cache.evicted", float64(d.Counter("growt_cache_evicted_total")))
	visited := float64(d.Counter("growt_cache_sweep_visited_total"))
	removed := float64(d.Counter("growt_cache_sweep_removed_total"))
	out.set("cache.sweep_visited", visited)
	out.set("cache.sweep_removed", removed)
	out.set("cache.sweep_useful_ratio", ratio(removed, visited))

	get, set := d.Hist(`growd_op_nanos{op="get"}`), d.Hist(`growd_op_nanos{op="set"}`)
	out.set("server.cpu_us_per_op", (p.after.cpu-p.before.cpu)*1e6/ops)
	out.set("server.exec_get_mean_ns", ratio(float64(get.Sum), float64(get.Count)))
	out.set("server.exec_set_mean_ns", ratio(float64(set.Sum), float64(set.Count)))
	out.set("server.exec_get_p99_us", float64(get.Quantile(0.99))/1e3)
	out.set("server.out_queue_depth_p99", float64(d.Hist("growd_out_queue_depth").Quantile(0.99)))
	out.set("server.ops", float64(d.Counter("growd_ops_total"))-1)
	out.set("server.protocol_errs", float64(d.Counter("growd_protocol_errs_total")))
	out.set("server.slow_ops", e.slowOps(p))

	out.set("client.p999_us", percentile(flatten(p.slices), 0.999)/1e3)
	out.set("loadgen.cpu_us_per_op", (p.after.self-p.before.self)*1e6/ops)

	out.set("go.gc_cycles", float64(p.after.snap.Gauge("go_gc_cycles")-p.before.snap.Gauge("go_gc_cycles")))
	out.set("go.gc_pause_p99_us", float64(p.after.snap.Gauge("go_gc_pause_p99_nanos"))/1e3)
	out.set("go.sched_latency_p99_us", float64(p.after.snap.Gauge("go_sched_latency_p99_nanos"))/1e3)
	out.set("go.heap_live_mb", float64(p.after.snap.Gauge("go_heap_live_bytes"))/(1<<20))

	e.probes(out, st)
}

// slowOps counts growd's slow-op log entries stamped inside the phase.
// The log keeps the last 256, so the count saturates there.
func (e *svcEnv) slowOps(p *phase) float64 {
	entries, err := e.ctl.SlowLog()
	if err != nil {
		return 0
	}
	n := 0
	for _, en := range entries {
		if en.TS >= p.before.at.UnixNano() && en.TS <= p.after.at.UnixNano() {
			n++
		}
	}
	return float64(n)
}

// probes measures, on the now idle server: the depth-1 round trip to
// growd, the same client against the stub responder (alone and
// pipelined), a STATS round trip, and the obs primitives' own cost.
func (e *svcEnv) probes(out *outcome, st *spanTable) {
	key := keyBytes(keyWord(e.cfg.seed, 0))
	n := 2000
	if e.cfg.smoke {
		n = 200
	}
	rtt := medianUs(n, func() { _, _, _ = e.ctl.Get(key) })
	out.set("client.rtt_d1_us", rtt)
	out.set("obs.stats_rtt_us", medianUs(20, func() { _, _ = e.ctl.Stats() }))

	stubRTT, pipelined := stubProbe(n, key)
	out.set("client.stub_rtt_us", stubRTT)
	out.set("client.stub_pipelined_ns_per_op", pipelined)
	// What is left of a round trip once the client, the wire and the
	// table behind exec are paid for: framing, exec's dispatch, the obs
	// stamps, the response queue and the writer's flush.
	out.set("server.self_rtt_us", max(0, rtt-stubRTT-st.ns(spCacheGet)/1e3))

	obsProbes(out)

	l := e.tr.lad[0]
	k, v := server.Key(key), string(valueFor(keyWord(e.cfg.seed, 0)))
	out.set("facade.store_allocs", allocsPer(n, func() { l.handle.InsertOrUpdate(k, v, growt.Replace[string]) }))
	out.set("cache.set_allocs", allocsPer(n, func() { l.cs.Set(k, v) }))
	borrows := e.tw.mapMap.PoolBorrows()
	for i := 0; i < n; i++ {
		e.tw.mapMap.Load(k)
	}
	out.set("facade.pool_borrows_per_op", float64(e.tw.mapMap.PoolBorrows()-borrows)/float64(n))
}

// allocsPer is the mean number of heap allocations one call of f makes.
// Other goroutines must be idle while it runs.
func allocsPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// medianUs times f n times and returns the median in microseconds.
func medianUs(n int, f func()) float64 {
	d := make([]float64, n)
	for i := range d {
		t := nanos()
		f()
		d[i] = float64(nanos()-t) / 1e3
	}
	return median(d)
}

// stubProbe drives the real client against the stub responder: n
// depth-1 round trips, then 50·n requests pipelined closedDepth deep.
func stubProbe(n int, key []byte) (rttUs, pipelinedNs float64) {
	s, err := startStub()
	if err != nil {
		return 0, 0
	}
	defer s.close()
	c, err := newGenConn(0, s.addr(), closedDepth)
	if err != nil {
		return 0, 0
	}
	defer c.cl.Close()
	rttUs = medianUs(n, func() { _, _, _ = c.cl.Get(key) })

	w := keyWord(0, 0)
	c.ops = []uint32{0}
	c.next = func(c *genConn, s *slot) { s.key, s.set = w, false }
	c.begin(nil, nanos(), 1)
	total := int64(50 * n)
	t := nanos()
	for c.sent < total {
		c.issue(<-c.free, 0)
	}
	c.drain(5 * time.Second)
	return rttUs, float64(nanos()-t) / float64(total)
}

// obsProbes prices the instruments every served request pays for.
func obsProbes(out *outcome) {
	reg := obs.NewRegistry()
	ctr, hist := reg.Counter("probe_total"), reg.Hist("probe_nanos")
	const n = 1 << 20
	perOp := func(f func(i uint64)) float64 {
		t := nanos()
		for i := uint64(0); i < n; i++ {
			f(i)
		}
		return float64(nanos()-t) / n
	}
	out.set("obs.counter_add_ns", perOp(func(uint64) { ctr.Add(1) }))
	out.set("obs.hist_observe_ns", perOp(func(i uint64) { hist.Observe(i) }))
	ring := trace.NewRing(trace.DefaultPerShard)
	out.set("obs.trace_emit_ns", perOp(func(i uint64) { ring.Append(trace.KindEnqueue, i, 0, 0) }))
	out.set("obs.snapshot_us", medianUs(50, func() { obs.Default.Snapshot() }))
}

// setSpanRows turns the span table into the core, facade and cache
// rows. Rows that never ran (no word route on a served workload, no
// cache on a library one) read 0.
func setSpanRows(out *outcome, st *spanTable) {
	rows := []struct {
		metric string
		name   spanName
	}{
		{"core.find_ns", spCoreFind}, {"core.upsert_ns", spCoreUpsert},
		{"core.fullkeys_find_ns", spFullKeysFind}, {"core.fullkeys_upsert_ns", spFullKeysUpsert},
		{"facade.word_find_ns", spWordFind}, {"facade.word_upsert_ns", spWordUpsert},
		{"facade.generic_handle_load_ns", spHandleLoad}, {"facade.generic_handle_store_ns", spHandleStore},
		{"facade.generic_session_load_ns", spSessionLoad}, {"facade.generic_session_store_ns", spSessionStore},
		{"facade.generic_map_load_ns", spMapLoad}, {"facade.generic_map_store_ns", spMapStore},
		{"cache.get_ns", spCacheGet}, {"cache.set_ns", spCacheSet},
	}
	for _, r := range rows {
		out.set(r.metric, st.ns(r.name))
	}
	// Self time is a row less the row it calls: Session and Map both sit
	// on a Handle, a Handle on the full-key core, the cache on a Session.
	selfs := []struct {
		metric     string
		row, child spanName
	}{
		{"facade.word_find_self_ns", spWordFind, spFullKeysFind},
		{"facade.word_upsert_self_ns", spWordUpsert, spFullKeysUpsert},
		{"facade.generic_handle_load_self_ns", spHandleLoad, spFullKeysFind},
		{"facade.generic_handle_store_self_ns", spHandleStore, spFullKeysUpsert},
		{"facade.generic_session_load_self_ns", spSessionLoad, spHandleLoad},
		{"facade.generic_session_store_self_ns", spSessionStore, spHandleStore},
		{"facade.generic_map_load_self_ns", spMapLoad, spHandleLoad},
		{"facade.generic_map_store_self_ns", spMapStore, spHandleStore},
		{"cache.self_get_ns", spCacheGet, spSessionLoad},
		{"cache.self_set_ns", spCacheSet, spSessionStore},
	}
	for _, s := range selfs {
		out.set(s.metric, st.self(s.row, s.child))
	}
	out.set("core.insert_p999_us", percentile(st[spCoreUpsert], 0.999)/1e3)
	out.set("core.pause_max_ms", maxU32(st[spCoreUpsert])/1e6)
}

// migrationMetrics reads the core's migration series from a counter
// window d; inserted is how many new keys went in during it.
func migrationMetrics(out *outcome, d obs.Snapshot, inserted float64) {
	var migs uint64
	for _, trig := range []string{"grow", "shrink", "cleanup"} {
		migs += d.Counter(`growt_migrations_total{trigger="` + trig + `"}`)
	}
	copied := float64(d.Counter("growt_migration_cells_copied_total"))
	assist := d.Hist("growt_migration_assist_nanos")
	out.set("core.migrations", float64(migs))
	out.set("core.mig_cells_copied", copied)
	out.set("core.mig_wall_ms", float64(d.Hist("growt_migration_wall_nanos").Sum)/1e6)
	out.set("core.mig_assist_count", float64(assist.Count))
	out.set("core.mig_assist_p99_us", float64(assist.Quantile(0.99))/1e3)
	out.set("core.copy_ratio", ratio(copied, inserted))
}
