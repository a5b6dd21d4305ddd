// Package serve is the detection-as-a-service front end: an HTTP/JSON
// server over a polypipe.Session that accepts SCoPs in the scop/v1
// wire envelope, runs Algorithm 1 through the session's tiered
// fingerprint cache, and returns detection summaries — with the
// production plumbing a shared deployment needs: bounded admission,
// per-tenant token-bucket quotas, load shedding with Retry-After,
// graceful drain, and serve.* metrics on the session registry.
//
// Endpoints:
//
//	POST /v1/detect        one enveloped SCoP → DetectResponse
//	POST /v1/detect/batch  enveloped batch → BatchResponse
//	GET  /healthz          200 while serving, 503 once draining
//	GET  /metrics          Prometheus exposition (via internal/obsd)
//	GET  /debug/*          phase spans, sampler series, trace (obsd)
//
// Admission is two-staged: a per-tenant token bucket (X-Tenant header;
// absent = "default") answers "may this tenant spend?", then a bounded
// semaphore + queue answers "can the process afford it right now?".
// Refusals are cheap and explicit — 429 with Retry-After for quota,
// 503 with Retry-After for overload and drain — so clients and load
// balancers back off instead of stacking latency. docs/SERVING.md is
// the operator guide.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obsd"
	"repro/internal/scop"
	"repro/polypipe"
)

// maxBodyBytes bounds a request body; a SCoP document past this is a
// client error, not a memory obligation.
const maxBodyBytes = 16 << 20

// Server is one detection service instance. Build with New, mount
// Handler on any mux or call Serve, then Drain on shutdown. All
// methods are safe for concurrent use.
type Server struct {
	sess *polypipe.Session
	lim  Limits
	mux  *http.ServeMux

	sem      chan struct{} // in-flight slots
	draining atomic.Bool
	drainCh  chan struct{} // closed when drain begins
	inflight sync.WaitGroup

	tenants *tenantTable
	now     func() time.Time // injectable for tests

	httpSrv *http.Server
	ln      net.Listener

	reqs       *obs.Counter
	batchItems *obs.Counter
	sheds      *obs.Counter
	quotaDeny  *obs.Counter
	respOK     *obs.Counter
	resp4xx    *obs.Counter
	resp5xx    *obs.Counter
	inflightG  *obs.Gauge
	inflightPk *obs.Gauge
	queueG     *obs.Gauge
	queuePk    *obs.Gauge
	drainingG  *obs.Gauge
	reqNS      *obs.Histogram

	tmu      sync.Mutex
	tenantNS map[string]*obs.Histogram
	reg      *obs.Registry
}

// New builds a server over sess with the given admission limits.
// Metrics land on reg under the serve.* names catalogued in
// docs/OBSERVABILITY.md; pass the session's registry so one /metrics
// scrape covers both. A nil reg falls back to sess.Registry(), and to
// a private registry when the session has none.
func New(sess *polypipe.Session, lim Limits, reg *obs.Registry) *Server {
	if reg == nil {
		reg = sess.Registry()
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	lim = lim.withDefaults()
	s := &Server{
		sess:    sess,
		lim:     lim,
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, lim.MaxInFlight),
		drainCh: make(chan struct{}),
		tenants: newTenantTable(lim),
		now:     time.Now,

		reqs:       reg.Counter("serve.requests"),
		batchItems: reg.Counter("serve.batch_items"),
		sheds:      reg.Counter("serve.sheds"),
		quotaDeny:  reg.Counter("serve.quota_denials"),
		respOK:     reg.Counter("serve.responses.ok"),
		resp4xx:    reg.Counter("serve.responses.client_error"),
		resp5xx:    reg.Counter("serve.responses.server_error"),
		inflightG:  reg.Gauge("serve.inflight"),
		inflightPk: reg.Gauge("serve.inflight_peak"),
		queueG:     reg.Gauge("serve.queue_depth"),
		queuePk:    reg.Gauge("serve.queue_peak"),
		drainingG:  reg.Gauge("serve.draining"),
		reqNS:      reg.Histogram("serve.request_ns", nil),

		tenantNS: make(map[string]*obs.Histogram),
		reg:      reg,
	}
	s.mux.HandleFunc("POST /v1/detect", s.handleDetect)
	s.mux.HandleFunc("POST /v1/detect/batch", s.handleBatch)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	intro := obsd.New(sess).Handler()
	s.mux.Handle("GET /metrics", intro)
	s.mux.Handle("GET /debug/", intro)
	// More specific than the obsd catch-all, so it wins the route.
	s.mux.HandleFunc("GET /debug/tenants", s.handleTenants)
	return s
}

// Handler returns the service mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve listens on addr (e.g. "127.0.0.1:0") and serves until Drain.
// It returns the bound address immediately; the accept loop runs on a
// background goroutine.
func (s *Server) Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return ln.Addr(), nil
}

// Addr returns the listening address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Drain shuts the server down gracefully: new work is refused with
// 503 immediately, queued waiters are released to shed, and in-flight
// detections run to completion (bounded by ctx). The HTTP listener
// closes last so refusals still reach clients during the drain.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		s.drainingG.Set(1)
		close(s.drainCh)
	}
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if s.httpSrv != nil {
		if herr := s.httpSrv.Shutdown(ctx); err == nil {
			err = herr
		}
	}
	return err
}

// tenantOf extracts the quota key: the X-Tenant header, or "default".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// admit runs the two admission stages for one request. On success it
// returns release != nil; the caller must invoke it when the work
// completes. On refusal it has already written the response.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, tenant string) (release func()) {
	if s.draining.Load() {
		s.sheds.Inc()
		s.refuse(w, http.StatusServiceUnavailable, CodeDraining, "server is draining", 1)
		return nil
	}
	if ok, retry := s.tenants.take(tenant, s.now()); !ok {
		s.quotaDeny.Inc()
		secs := int(retry/time.Second) + 1
		s.refuse(w, http.StatusTooManyRequests, CodeQuotaExhausted,
			fmt.Sprintf("tenant %q is over its request quota", tenant), secs)
		return nil
	}
	q := s.queueG.Add(1)
	s.queuePk.Max(q)
	if int(q) > s.lim.MaxQueue {
		s.queueG.Add(-1)
		s.sheds.Inc()
		s.refuse(w, http.StatusServiceUnavailable, CodeOverloaded, "admission queue is full", 1)
		return nil
	}
	select {
	case s.sem <- struct{}{}:
	case <-r.Context().Done():
		s.queueG.Add(-1)
		s.refuse(w, http.StatusServiceUnavailable, CodeCanceled, "client went away while queued", 0)
		return nil
	case <-s.drainCh:
		s.queueG.Add(-1)
		s.sheds.Inc()
		s.refuse(w, http.StatusServiceUnavailable, CodeDraining, "server is draining", 1)
		return nil
	}
	s.queueG.Add(-1)
	s.inflight.Add(1)
	in := s.inflightG.Add(1)
	s.inflightPk.Max(in)
	return func() {
		<-s.sem
		s.inflightG.Add(-1)
		s.inflight.Done()
	}
}

// tenantHist returns (building on demand) the per-tenant latency
// histogram serve.tenant.<name>.request_ns.
func (s *Server) tenantHist(tenant string) *obs.Histogram {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	h := s.tenantNS[tenant]
	if h == nil {
		h = s.reg.Histogram("serve.tenant."+tenant+".request_ns", nil)
		s.tenantNS[tenant] = h
	}
	return h
}

// readBody reads one request body under the size bound.
func readBody(r *http.Request) ([]byte, *ErrorDetail) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, &ErrorDetail{Code: CodeBadRequest, Message: "read body: " + err.Error()}
	}
	if len(body) > maxBodyBytes {
		return nil, &ErrorDetail{Code: CodeBadRequest, Message: "request body exceeds 16 MiB"}
	}
	return body, nil
}

// requireStmts refuses degenerate SCoPs: encoding/json ignores unknown
// keys, so without the statement check a typo'd document would
// "detect" an empty program and return an empty 200.
func requireStmts(sc *scop.SCoP) error {
	if len(sc.Stmts) == 0 {
		return fmt.Errorf("scop %q has no statements", sc.Name)
	}
	return nil
}

// observe records one request's handler latency, from entry to the
// response being written, on the service and the tenant histograms.
func (s *Server) observe(tenant string, start time.Time) {
	elapsed := s.now().Sub(start).Nanoseconds()
	s.reqNS.Observe(elapsed)
	s.tenantHist(tenant).Observe(elapsed)
}

// handleDetect serves one enveloped SCoP. The body is parsed once
// (scop.FromEnvelopeJSON: schema and payload in one pass, nothing
// enumerated), so a cache hit costs the parse, the affine fingerprint,
// the probe and the summary. The checks that need enumerated points
// run inside detection, after admission, and only on a miss: a hit is
// sound without them because only SCoPs that passed them are cached,
// and an equal fingerprint means an equal description.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	start := s.now()
	s.reqs.Inc()
	tenant := tenantOf(r)
	defer s.observe(tenant, start)
	body, ed := readBody(r)
	if ed != nil {
		s.refuse(w, http.StatusBadRequest, ed.Code, ed.Message, 0)
		return
	}
	sc, err := scop.FromEnvelopeJSON(body)
	if err == nil {
		err = requireStmts(sc)
	}
	if err != nil {
		status, code := classify(err)
		s.refuse(w, status, code, err.Error(), 0)
		return
	}
	release := s.admit(w, r, tenant)
	if release == nil {
		return
	}
	defer release()
	info, err := s.sess.Detect(sc)
	if err != nil {
		status, code := classify(err)
		s.refuse(w, status, code, err.Error(), 0)
		return
	}
	s.respond(w, http.StatusOK, summarize(info))
}

// batchDoc is the typed batch envelope, parsed in one pass.
type batchDoc struct {
	Schema *string           `json:"schema"`
	Scops  []json.RawMessage `json:"scops"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := s.now()
	s.reqs.Inc()
	tenant := tenantOf(r)
	defer s.observe(tenant, start)
	body, ed := readBody(r)
	if ed != nil {
		s.refuse(w, http.StatusBadRequest, ed.Code, ed.Message, 0)
		return
	}
	var req batchDoc
	err := json.Unmarshal(body, &req)
	var te *json.UnmarshalTypeError
	switch {
	case req.Schema == nil && err != nil && (!errors.As(err, &te) || te.Field == "" || te.Field == "schema"):
		s.refuse(w, http.StatusBadRequest, CodeBadRequest, "malformed JSON: "+err.Error(), 0)
		return
	case req.Schema == nil:
		s.refuse(w, http.StatusBadRequest, CodeBadSchema, (&scop.SchemaError{}).Error(), 0)
		return
	case err != nil:
		s.refuse(w, http.StatusBadRequest, CodeBadRequest, "malformed batch: "+err.Error(), 0)
		return
	case *req.Schema != scop.SchemaV1:
		err := &scop.SchemaError{Schema: *req.Schema}
		s.refuse(w, http.StatusBadRequest, CodeBadSchema, err.Error(), 0)
		return
	case len(req.Scops) == 0:
		s.refuse(w, http.StatusBadRequest, CodeBadRequest, "batch has no scops", 0)
		return
	}
	resp := BatchResponse{Schema: scop.SchemaV1, Results: make([]*DetectResponse, len(req.Scops))}
	scs := make([]*scop.SCoP, len(req.Scops))
	for i, raw := range req.Scops {
		sc, err := scop.FromJSON(raw)
		if err == nil {
			err = requireStmts(sc)
		}
		if err != nil {
			_, code := classify(err)
			resp.Errors = append(resp.Errors, BatchItemError{Index: i, Code: code, Message: err.Error()})
			continue
		}
		scs[i] = sc
	}
	// One admission slot covers the whole batch: the session fans the
	// items over its own worker pool, so batch concurrency is already
	// governed; admitting per item would deadlock small queues.
	release := s.admit(w, r, tenant)
	if release == nil {
		return
	}
	defer release()
	s.batchItems.Add(int64(len(req.Scops)))

	valid := make([]*scop.SCoP, 0, len(scs))
	backIdx := make([]int, 0, len(scs))
	for i, sc := range scs {
		if sc != nil {
			valid = append(valid, sc)
			backIdx = append(backIdx, i)
		}
	}
	infos, errs := s.sess.DetectBatch(valid)
	for j, info := range infos {
		i := backIdx[j]
		if errs[j] != nil {
			_, code := classify(errs[j])
			resp.Errors = append(resp.Errors, BatchItemError{Index: i, Code: code, Message: errs[j].Error()})
			continue
		}
		resp.Results[i] = summarize(info)
	}
	s.respond(w, http.StatusOK, resp)
}

// handleHealthz is the service health endpoint: 200 while accepting
// work, 503 once draining or the session is closed. (The obsd
// /healthz reflects only the session; this one folds in drain state,
// which is what a load balancer needs.)
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() || !s.sess.Healthy() {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// TenantsResponse is the GET /debug/tenants body: the admission
// policy in force plus every tenant the server has seen with its
// current token balance and lifetime admitted/denied counts. With
// quotas disabled (TenantRate == 0) Enabled is false and Tenants is
// empty — the bucket table is never populated.
type TenantsResponse struct {
	Enabled bool          `json:"quota_enabled"`
	Rate    float64       `json:"rate"`
	Burst   float64       `json:"burst"`
	Tenants []TenantState `json:"tenants"`
}

// handleTenants serves the per-tenant quota standings, the operator's
// answer to "which tenant is being throttled and how close are the
// others". Registered above the obsd /debug/ catch-all.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	states := s.tenants.snapshot(s.now())
	if states == nil {
		states = []TenantState{}
	}
	s.respond(w, http.StatusOK, TenantsResponse{
		Enabled: s.lim.TenantRate > 0,
		Rate:    s.lim.TenantRate,
		Burst:   s.lim.TenantBurst,
		Tenants: states,
	})
}

// respond writes a JSON body with status.
func (s *Server) respond(w http.ResponseWriter, status int, body any) {
	s.count(status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// refuse writes an ErrorBody, with Retry-After when retryAfter > 0.
func (s *Server) refuse(w http.ResponseWriter, status int, code, msg string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	s.count(status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: ErrorDetail{Code: code, Message: msg}})
}

func (s *Server) count(status int) {
	switch {
	case status < 400:
		s.respOK.Inc()
	case status < 500:
		s.resp4xx.Inc()
	default:
		s.resp5xx.Inc()
	}
}
