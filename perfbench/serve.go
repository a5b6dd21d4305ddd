package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/scop"
	"repro/internal/serve"
	"repro/polypipe"
)

// The two serving workloads drive POST /v1/detect on an in-process
// serve.Server over loopback keep-alive connections, from at most
// nproc client goroutines. serve-hot replays a zipf mix over a warmed
// cache, so every request is a hit and the work is wire decode, domain
// enumeration, fingerprint and cache probe. serve-novel sends only
// documents the cache has not seen, so every request pays a miss,
// core.Detect and an insert.

const (
	// openShare is the part of the untraced half of a traced run spent
	// in the open loop; the rest runs closed-loop passes. At the rates
	// below the open loop of a 25 s traced run sends one serve-hot block
	// or one serve-novel cycle. An untraced run reports only the
	// end-to-end metrics, which come from the closed loop, so it spends
	// its whole budget there.
	//
	// Open-loop latency is reported per layer only. At a fixed rate the
	// two CPUs are idle between requests, and every request waits for
	// the hypervisor to wake one: on a shared 2-CPU host the open-loop
	// p90 of serve-hot rose from 7 ms to 10–14 ms in every run where the
	// hypervisor took over a tenth of the CPU time, while the
	// closed-loop p50, on CPUs that never idle, stayed at 1.3–1.5 ms.
	openShare = 0.3
	// hotRate and novelRate are the offered open-loop rates, at most a
	// sixth of the closed-loop throughput on 2 CPUs. With nproc
	// connections a request due while both carry costly ones waits, and
	// at twice these rates that wait made up most of the p90.
	hotRate   = 50.0
	novelRate = 50.0
	// hotBlock is the size of one serve-hot block: every document in
	// its zipf share, shuffled. A closed-loop pass is one block.
	hotBlock = 270
	// hotZipfS skews the serve-hot mix; rank 0 is the most requested.
	hotZipfS = 1.1
	// novelCacheCap is far below the serve-novel document count: one
	// entry per cache shard, so the cache evicts on almost every insert.
	novelCacheCap = 8
)

// serveKernels are the served programs: Table 9 P1–P10 and the
// 3-deep nmm and gmm matrix chains.
var serveKernels = []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "3nmm", "3gmm"}

// hotSizes are the serve-hot problem sizes. The request body does not
// grow with n but the decode and fingerprint cost does.
var hotSizes = []int{12, 24, 48}

// kernelDoc builds one kernel at size n and encodes it in the scop/v1
// wire envelope.
func kernelDoc(kernel string, n int) ([]byte, error) {
	var sc *scop.SCoP
	switch kernel {
	case "3nmm":
		sc = kernels.MMChain(3, n, kernels.MM).SCoP
	case "3gmm":
		sc = kernels.MMChain(3, n, kernels.GMM).SCoP
	default:
		p, err := kernels.Table9Program(kernel, n, 2)
		if err != nil {
			return nil, err
		}
		sc = p.SCoP
	}
	return scop.ToJSONEnveloped(sc)
}

// rig is one server under test: a session configured as cmd/pipelined
// configures it (cache plus registry) behind a serve.Server, with nproc
// clients when it listens on loopback.
type rig struct {
	sess    *polypipe.Session
	reg     *obs.Registry
	srv     *serve.Server
	clients []*client
	dials   atomic.Int64
}

func startRig(cacheCap int, listen bool) (*rig, error) {
	reg := obs.NewRegistry()
	sess := polypipe.NewSession(polypipe.WithCache(cacheCap), polypipe.WithRegistry(reg))
	r := &rig{sess: sess, reg: reg, srv: serve.New(sess, serve.Limits{}, reg)}
	if listen {
		addr, err := r.srv.Serve("127.0.0.1:0")
		if err != nil {
			sess.Close()
			return nil, err
		}
		url := "http://" + addr.String() + "/v1/detect"
		for i := 0; i < runtime.NumCPU(); i++ {
			r.clients = append(r.clients, newClient(url, &r.dials))
		}
	}
	return r, nil
}

func (r *rig) close() {
	for _, c := range r.clients {
		c.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = r.srv.Drain(ctx) // every request has completed; a drain error leaves nothing to undo
	r.sess.Close()
}

func (r *rig) cacheCounts() (hits, misses, evictions int64) {
	s := r.reg.Snapshot()
	return s.Counter("cache.hits"), s.Counter("cache.misses"), s.Counter("cache.evictions")
}

// direct runs the server's handler in process, without a socket.
func (r *rig) direct(doc []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(doc))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	r.srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// expect is the reference answer for one document, computed by
// core.Detect on an independent decode of the same bytes.
type expect struct {
	fingerprint string
	pairs       []serve.PairSummary
	blocks      map[string]int
	total       int
}

func reference(doc []byte) (expect, error) {
	sc, err := scop.FromJSON(doc)
	if err != nil {
		return expect{}, err
	}
	info, err := core.Detect(sc, core.Options{})
	if err != nil {
		return expect{}, err
	}
	e := expect{fingerprint: sc.Fingerprint().String(), blocks: map[string]int{}, total: info.TotalBlocks()}
	for _, p := range info.Pairs {
		e.pairs = append(e.pairs, serve.PairSummary{Src: p.Src.Name, Dst: p.Dst.Name})
	}
	for _, si := range info.Stmts {
		e.blocks[si.Stmt.Name] = len(si.Blocks)
	}
	return e, nil
}

// check compares one response with the reference.
func (e expect) check(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	var got serve.DetectResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable response: %v", err)
	}
	if got.Fingerprint != e.fingerprint {
		return fmt.Errorf("fingerprint %s, want %s", got.Fingerprint, e.fingerprint)
	}
	if got.TotalBlocks != e.total {
		return fmt.Errorf("total_blocks %d, want %d", got.TotalBlocks, e.total)
	}
	if len(got.Pairs) != len(e.pairs) {
		return fmt.Errorf("%d pairs, want %d", len(got.Pairs), len(e.pairs))
	}
	for i, p := range got.Pairs {
		if p != e.pairs[i] {
			return fmt.Errorf("pair %d is %v, want %v", i, p, e.pairs[i])
		}
	}
	if len(got.Stmts) != len(e.blocks) {
		return fmt.Errorf("%d statements, want %d", len(got.Stmts), len(e.blocks))
	}
	for _, s := range got.Stmts {
		if want, ok := e.blocks[s.Name]; !ok || s.Blocks != want {
			return fmt.Errorf("statement %s has %d blocks, want %d", s.Name, s.Blocks, want)
		}
	}
	return nil
}

// oracle computes references lazily, once per document, after the
// measured window: the documents a run sends depend on how fast the
// server answers, and a reference for one never sent would be wasted.
type oracle struct {
	docs   [][]byte
	labels []string
	refs   map[int]expect
}

func (o *oracle) verify(rep *report, ss []sample) {
	for _, s := range ss {
		rep.attempted++
		label := o.labels[s.doc]
		if !s.ok() {
			rep.fail("%s: %s", label, describe(s))
			continue
		}
		ref, ok := o.refs[s.doc]
		if !ok {
			r, err := reference(o.docs[s.doc])
			if err != nil {
				rep.fail("%s: reference detection failed: %v", label, err)
				continue
			}
			o.refs[s.doc], ref = r, r
		}
		if err := ref.check(s.status, s.body); err != nil {
			rep.fail("%s: %v", label, err)
		}
	}
}

// all computes the references of every document not yet seen.
func (o *oracle) all() error {
	for d, doc := range o.docs {
		if _, ok := o.refs[d]; ok {
			continue
		}
		r, err := reference(doc)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", o.labels[d], err)
		}
		o.refs[d] = r
	}
	return nil
}

// totalBlocks sums the reference block counts of every document the
// oracle saw: an exact count that moves only with the blocking policy.
func (o *oracle) totalBlocks() int64 {
	var t int64
	for _, r := range o.refs {
		t += int64(r.total)
	}
	return t
}

// serveState is one set-up of a serving workload.
type serveState struct {
	docs   [][]byte
	labels []string
	rig    *rig
}

func (s *serveState) close() { s.rig.close() }

// serveCorpus is every served kernel at every size in sizes, sizes
// outermost. For serve-hot this is popularity rank order: small sizes
// first, so the mix is mostly cheap requests with a tail of large
// ones. The order is part of the workload, not of the seed, so every
// seed has the same cost mix.
func serveCorpus(sizes []int) ([][]byte, []string, error) {
	var docs [][]byte
	var labels []string
	for _, n := range sizes {
		for _, k := range serveKernels {
			d, err := kernelDoc(k, n)
			if err != nil {
				return nil, nil, fmt.Errorf("%s n=%d: %w", k, n, err)
			}
			docs = append(docs, d)
			labels = append(labels, fmt.Sprintf("%s/n=%d", k, n))
		}
	}
	return docs, labels, nil
}

// hotBlocks returns a function that deals blocks of hotBlock document
// indexes. Each block holds document k (popularity rank k of docs) in
// its zipf share, at least once, in an order drawn from the seed.
// Fixing the shares rather than sampling them keeps every block, and
// so every pass and every seed, at the same cost mix.
func hotBlocks(seed int64, docs int) func() []int {
	w := make([]float64, docs)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -hotZipfS)
		total += w[k]
	}
	var block []int
	for k := range w {
		n := int(math.Round(hotBlock * w[k] / total))
		if n < 1 {
			n = 1
		}
		for i := 0; i < n && len(block) < hotBlock; i++ {
			block = append(block, k)
		}
	}
	for len(block) < hotBlock {
		block = append(block, 0)
	}
	rng := rand.New(rand.NewSource(seed))
	return func() []int {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		return append([]int(nil), block...)
	}
}

// fill returns the first n values of the concatenated results of next.
func fill(n int, next func() []int) []int {
	var out []int
	for len(out) < n {
		out = append(out, next()...)
	}
	return out[:n]
}

// warm sends every document once, from every client at a time, and
// returns the summed total_blocks of the answers.
func warm(r *rig, docs [][]byte) (int64, error) {
	order := make([]int, len(docs))
	for i := range order {
		order[i] = i
	}
	ss, _ := closedRound(r.clients, docs, order)
	var total int64
	for _, s := range ss {
		if !s.ok() {
			return 0, fmt.Errorf("warming doc %d: %s", s.doc, describe(s))
		}
		var resp serve.DetectResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			return 0, fmt.Errorf("warming doc %d: %v", s.doc, err)
		}
		total += int64(resp.TotalBlocks)
	}
	return total, nil
}

func runServeHot(e *env) (*report, error) {
	rep := newReport()
	var warmBlocks []int64
	st, setup, err := timedSetups(func() (*serveState, error) {
		docs, labels, err := serveCorpus(hotSizes)
		if err != nil {
			return nil, err
		}
		r, err := startRig(0, true)
		if err != nil {
			return nil, err
		}
		b, err := warm(r, docs)
		if err != nil {
			r.close()
			return nil, err
		}
		warmBlocks = append(warmBlocks, b)
		return &serveState{docs: docs, labels: labels, rig: r}, nil
	}, (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep.metrics["setup_s"] = setup
	sameCounts(rep, "warm total_blocks", warmBlocks)

	// One sequence of blocks: the open loop takes its head, each
	// closed-loop and traced pass the next block.
	next := hotBlocks(e.seed, len(st.docs))
	or := &oracle{docs: st.docs, labels: st.labels, refs: map[int]expect{}}
	budget := e.budget
	if e.traced {
		budget /= 2
	}
	openOrder := func(n int) []int { return fill(n, next) }
	err = measureServe(rep, or, st.rig, budget, e.traced, hotRate, hotBlock, openOrder, func() (*rig, []int, func(), error) {
		return st.rig, next(), func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	if e.traced {
		var direct *rig
		defer func() {
			if direct != nil {
				direct.close()
			}
		}()
		traceServe(e, rep, or, budget, next, func(prev *traceRigs) (*traceRigs, error) {
			if prev != nil {
				return prev, nil
			}
			var err error
			if direct, err = startRig(0, false); err != nil {
				return nil, err
			}
			bc := cache.New(0, nil)
			for _, d := range st.docs {
				if code, body := direct.direct(d); code != http.StatusOK {
					return nil, fmt.Errorf("warming the handler-only server: status %d: %.200s", code, body)
				}
				sc, err := scop.FromJSON(d)
				if err != nil {
					return nil, err
				}
				if _, err := bc.Get(context.Background(), sc, core.Options{}); err != nil {
					return nil, err
				}
			}
			return &traceRigs{net: st.rig, direct: direct, bc: bc}, nil
		})
	}
	if err := or.all(); err != nil {
		return nil, err
	}
	rep.count("core.blocks", or.totalBlocks())
	return rep, nil
}

// sameCounts records a repeat-check failure when one count, computed
// by several set-ups of the same seed, differs between them.
func sameCounts(rep *report, what string, vs []int64) {
	for _, v := range vs[1:] {
		if v != vs[0] {
			rep.problem("repeat check: %s %v differ between set-ups of one seed", what, vs)
			return
		}
	}
}

// measureServe runs the untraced measurement: when withOpen, the open
// loop on open at rate for openShare of budget, then closed-loop passes
// for the rest of it. openOrder returns the first n documents the open
// loop sends; n is a whole number of blocks of block documents, each
// of which holds the workload's whole mix. nextPass returns the server,
// document order and clean-up of the next closed-loop pass.
func measureServe(rep *report, or *oracle, open *rig, budget time.Duration, withOpen bool, rate float64, block int,
	openOrder func(n int) []int, nextPass func() (*rig, []int, func(), error)) error {
	var openDur time.Duration
	var order []int
	if withOpen {
		openDur = time.Duration(float64(budget) * openShare)
		order = openOrder(openLen(rate, openDur, block))
	}
	h0, m0, ev0 := open.cacheCounts()
	gc := gcStart()
	opened := openLoop(open.clients, or.docs, func(i int) int { return order[i] }, rate, len(order))
	h1, m1, ev1 := open.cacheCounts()

	or.verify(rep, opened)
	var closed []float64
	var passes, rates []float64
	ws := openWindows()
	closedStart := time.Now()
	for len(passes) == 0 || time.Since(closedStart) < budget-openDur {
		r, order, done, err := nextPass()
		if err != nil {
			return err
		}
		m := markSteal()
		ss, wall := closedRound(r.clients, or.docs, order)
		stolen := m.stolenUntil(markSteal())
		done()
		ok := 0
		for _, s := range ss {
			if s.ok() {
				ok++
			}
		}
		closed = append(closed, latencies(ss)...)
		passes = append(passes, wall.Seconds())
		rates = append(rates, float64(ok)/wall.Seconds())
		// Checking each pass as it ends keeps the response bodies of one
		// pass at most alive, so the heap, and with it the collector's
		// pace, is the same in the last pass as in the first.
		or.verify(rep, ss)
		ws.close(stolen)
	}
	gc.stop(rep.metrics)

	win := len(closed) / len(passes)
	rep.metrics["latency_p50_ms"], rep.metrics["latency_p90_ms"] = ws.quantiles(closed, win)
	rep.metrics["raw.latency_p50_ms"], _ = quietQuantiles(closed, win, ws.stolen)
	rep.metrics["throughput_rps"] = ws.rates(rates)
	rep.metrics["run_pass_s"] = ws.times(passes)
	rep.metrics["raw.run_pass_s"] = quietMedian(passes, ws.stolen)
	openLat := latencies(opened)
	rep.metrics["loadgen.open_p50_ms"] = quantile(openLat, 0.50)
	rep.metrics["loadgen.open_p90_ms"] = quantile(openLat, 0.90)
	late := make([]float64, len(opened))
	for i, s := range opened {
		late[i] = ms(s.late)
	}
	rep.metrics["loadgen.late_ms"] = quantile(late, 0.99)
	if h, m := h1-h0, m1-m0; h+m > 0 {
		rep.metrics["cache.hit_ratio"] = float64(h) / float64(h+m)
	}
	rep.metrics["cache.evictions"] = float64(ev1 - ev0)
	rep.metrics["loadgen.conns"] = float64(open.dials.Load())
	return nil
}

// openLen is the open-loop request count: what rate offers in dur,
// rounded down to whole blocks of the stream (at least one).
func openLen(rate float64, dur time.Duration, block int) int {
	n := int(rate*dur.Seconds()) / block * block
	if n < block {
		n = block
	}
	return n
}

// traceRigs is what one traced pass runs against: the listening
// server, a handler-only server in the same cache state, and a cache
// for the layer replay.
type traceRigs struct {
	net, direct *rig
	bc          *cache.Cache
}

// traceServe is the traced phase of a serving workload: closed-loop
// passes, each sending the documents next returns, in which every
// request is followed, on
// the same client, by the same document through the server's handler
// in process and through the layers the handler calls
// (scop.FromJSON, Fingerprint, cache.Get and, on a miss, core.Detect),
// each under its own span. rigsFor returns the rigs of the next pass
// given the previous pass's (nil for the first).
func traceServe(e *env, rep *report, or *oracle, budget time.Duration, next func() []int,
	rigsFor func(prev *traceRigs) (*traceRigs, error)) {
	tr := &tracer{}
	nc := runtime.NumCPU()
	lanes := make([]*lane, nc)
	for i := range lanes {
		lanes[i] = tr.lane()
	}
	var mu sync.Mutex
	var rigs *traceRigs
	var first []int
	start := time.Now()
	for first == nil || time.Since(start) < budget {
		var err error
		if rigs, err = rigsFor(rigs); err != nil {
			rep.problem("traced set-up: %v", err)
			return
		}
		order := next()
		if first == nil {
			first = order
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		var checked []sample
		for li, c := range rigs.net.clients[:nc] {
			wg.Add(1)
			go func(l *lane, c *client) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(order) {
						return
					}
					d := order[i]
					doc := or.docs[d]
					op := tr.newOp()
					root := l.begin("request", op, 0)
					s := sample{doc: d}
					l.call("net.roundtrip", op, root.id, func() {
						s.status, s.body, s.err = c.post(doc)
					})
					hs := sample{doc: d}
					l.call("serve.handler", op, root.id, func() {
						hs.status, hs.body = rigs.direct.direct(doc)
					})
					replay(l, op, root.id, rigs.bc, doc)
					l.end(root)
					mu.Lock()
					checked = append(checked, s, hs)
					mu.Unlock()
				}
			}(lanes[li], c)
		}
		wg.Wait()
		or.verify(rep, checked)
	}

	spans := tr.all()
	ops := int(tr.ops.Load())
	perOpMetrics(rep.metrics, spans, ops, "serve.handler", "scop.decode", "scop.fingerprint", "core.detect",
		"detect.dependence_analysis", "detect.pipeline_maps", "detect.blocking_integration", "detect.dependency_relations")
	if hits := spanDurations(spans, "cache.hit"); len(hits) > 0 {
		rep.metrics["cache.probe_us"] = 1e3 * sum(hits) / float64(len(hits))
	}
	rt := spanDurations(spans, "net.roundtrip")
	rep.metrics["net.client_ms"] = sum(rt)/float64(len(rt)) - rep.metrics["serve.handler_ms"]
	if base := rep.metrics["raw.latency_p50_ms"]; base > 0 {
		rep.metrics["trace.overhead_pct"] = 100 * (quantile(rt, 0.5) - base) / base
	}
	rep.metrics["scop.decode_allocs"] = decodeAllocs(or.docs, first)
	if err := tr.write(fmt.Sprintf("%s/trace/%s-seed%d.json", e.scratch, e.name, e.seed)); err != nil {
		rep.problem("write trace: %v", err)
	}
}

// novelSizes are the serve-novel sizes: with every served kernel at
// each, 144 documents.
var novelSizes = []int{8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}

func runServeNovel(e *env) (*report, error) {
	rep := newReport()
	st, setup, err := timedSetups(func() (*serveState, error) {
		docs, labels, err := serveCorpus(novelSizes)
		if err != nil {
			return nil, err
		}
		r, err := startRig(novelCacheCap, true)
		if err != nil {
			return nil, err
		}
		return &serveState{docs: docs, labels: labels, rig: r}, nil
	}, (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep.metrics["setup_s"] = setup

	// The open loop sends cycles through all documents. Each cycle
	// reorders the first half and the second half of the one before
	// within themselves, so a document comes back only after at least
	// half the set has been sent. The cache holds one entry per shard
	// and has evicted it by then, so every request misses, while the
	// order, and with it which costly documents collide, changes from
	// one cycle to the next. Every closed-loop pass, and every
	// traced pass, sends a seeded permutation to a server with a cold
	// cache.
	n := len(st.docs)
	rng := rand.New(rand.NewSource(e.seed))
	var cycle []int
	nextCycle := func() []int {
		if cycle == nil {
			cycle = rng.Perm(n)
		} else {
			cycle = append([]int(nil), cycle...)
			for _, half := range [][]int{cycle[:n/2], cycle[n/2:]} {
				rng.Shuffle(len(half), func(i, j int) { half[i], half[j] = half[j], half[i] })
			}
		}
		return cycle
	}
	perm := func() []int { return rng.Perm(n) }
	or := &oracle{docs: st.docs, labels: st.labels, refs: map[int]expect{}}
	budget := e.budget
	if e.traced {
		budget /= 2
	}
	openOrder := func(k int) []int { return fill(k, nextCycle) }
	err = measureServe(rep, or, st.rig, budget, e.traced, novelRate, n, openOrder, func() (*rig, []int, func(), error) {
		r, err := startRig(novelCacheCap, true)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, perm(), r.close, nil
	})
	if err != nil {
		return nil, err
	}
	if e.traced {
		var last *traceRigs
		release := func(t *traceRigs) {
			if t != nil {
				t.net.close()
				t.direct.close()
			}
		}
		defer func() { release(last) }()
		traceServe(e, rep, or, budget, perm, func(prev *traceRigs) (*traceRigs, error) {
			release(prev)
			last = nil
			netRig, err := startRig(novelCacheCap, true)
			if err != nil {
				return nil, err
			}
			direct, err := startRig(novelCacheCap, false)
			if err != nil {
				netRig.close()
				return nil, err
			}
			last = &traceRigs{net: netRig, direct: direct, bc: cache.New(novelCacheCap, nil)}
			return last, nil
		})
	}
	if err := or.all(); err != nil {
		return nil, err
	}
	rep.count("core.blocks", or.totalBlocks())
	return rep, nil
}

// replay runs one document through the layers the handler calls, each
// under a span: decode (with domain enumeration), fingerprint, and the
// cache probe, which on a miss runs core.Detect; its detect.* phases
// come from the observer core.Detect already accepts.
func replay(l *lane, op, parent int64, bc *cache.Cache, doc []byte) {
	var sc *scop.SCoP
	var err error
	l.call("scop.decode", op, parent, func() { sc, err = scop.FromJSON(doc) })
	if err != nil {
		return // the response check reports the document
	}
	l.call("scop.fingerprint", op, parent, func() { sc.Fingerprint() })
	rec := &obs.Recorder{Phases: &obs.Phases{}}
	get := l.begin("cache.get", op, parent)
	_, _ = bc.Get(context.Background(), sc, core.Options{Obs: rec}) // the answer is checked through the server
	d := l.end(get)
	if !attachDetect(l, op, get, rec.Phases.Spans()) {
		l.spans = append(l.spans, span{id: l.t.ids.Add(1), parent: get.id, op: op, lane: l.idx,
			name: "cache.hit", start: get.start, end: get.start.Add(d), phase: true})
	}
}

// attachDetect records, for a cache.Get that missed, a core.detect
// span from the start of the call to the end of the last detect.*
// phase the call produced, with the phases as its children. What is
// left of the cache.get span is the insert after detection. A hit
// produces no phases and gets no core.detect span.
func attachDetect(l *lane, op int64, get openSpan, ps []obs.PhaseSpan) bool {
	var last time.Time
	for _, p := range ps {
		if end := p.Start.Add(p.Duration); strings.HasPrefix(p.Name, "detect.") && end.After(last) {
			last = end
		}
	}
	if last.IsZero() {
		return false
	}
	id := l.t.ids.Add(1)
	l.spans = append(l.spans, span{id: id, parent: get.id, op: op, lane: l.idx, name: "core.detect", start: get.start, end: last})
	l.phases(op, id, "detect.", ps)
	return true
}

// decodeAllocs is the mean heap allocation count of one scop.FromJSON
// over the documents of the traced phase (at most 64 of them), taken
// with nothing else running.
func decodeAllocs(docs [][]byte, order []int) float64 {
	n := len(order)
	if n > 64 {
		n = 64
	}
	var total uint64
	var ms runtime.MemStats
	for i := 0; i < n; i++ {
		doc := docs[order[i]]
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		_, _ = scop.FromJSON(doc) // decoded and checked above
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}
