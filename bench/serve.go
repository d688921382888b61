package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynamollm/internal/core"
	"dynamollm/internal/model"
	"dynamollm/internal/profile"
	"dynamollm/internal/serve"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// serveRates are the open-loop rungs in req/s, run one after another.
// The overhead percentiles are read at overheadRate, which runs four
// times: the host's interference only ever slows a rung down, so the
// fastest of the four is the steadiest estimate. Goodput is read at the
// top rung.
var serveRates = []float64{1000, overheadRate, overheadRate, overheadRate, overheadRate, 4000}

const (
	// serveSeed is dynamoserve's default seed: the session, like the
	// server it stands for, runs the same background trace every time,
	// and the benchmark's seed drives the client's schedule.
	serveSeed    = 42
	overheadRate = 2000.0
	// serveSpeed is dynamoserve's default virtual seconds per wall second.
	serveSpeed = 60.0
	// serveTick is core's default tick (the instance-manager epoch); the
	// traced run advances the session on the same interval Session.Start
	// derives from it.
	serveTick = 5.0
	// overheadLimitMS is the overhead p99 at which max_rps is read.
	overheadLimitMS = 250.0
	// genLateLimitMS invalidates a run whose generator sent its requests
	// this late at the 99th percentile: the schedule was not open-loop.
	genLateLimitMS = 20.0
	// requestTimeout bounds every request, server and client side, so a
	// stuck run ends well within its time limit.
	requestTimeout = 30 * time.Second
	// maxStreams lets every request of the top rung be in flight on the
	// one connection at once, so none queues in the client.
	maxStreams = 1 << 16

	// rungSamples speed-kernel samples are taken before each rung.
	rungSamples = 25

	requestHeader = "X-Bench-Request"
	spanHeader    = "X-Bench-Span"
)

// arrival is one scheduled request.
type arrival struct {
	rung int
	at   time.Duration // due time after the rung's start
	body []byte
}

// schedule precomputes an open-loop Poisson schedule per rung, with
// class-mixed request lengths drawn from the Conversation service's mix.
func schedule(seed uint64, rates []float64, rung time.Duration) []arrival {
	rng := simclock.NewRNG(seed ^ 0x5e7e)
	lenRNG := rng.Split(1)
	weights := trace.ProfileFor(trace.Conversation).BaseClassWeights
	for c := range weights {
		if workload.Class(c).Output() == workload.Long {
			weights[c] = 0
		}
	}
	var out []arrival
	for r, rate := range rates {
		for t := rng.Exp(rate); t < rung.Seconds(); t += rng.Exp(rate) {
			in, outTok := trace.SampleLengths(lenRNG, workload.Class(rng.Pick(weights[:])))
			out = append(out, arrival{
				rung: r,
				at:   time.Duration(t * float64(time.Second)),
				body: fmt.Appendf(nil, `{"input_tokens":%d,"output_tokens":%d}`, in, outTok),
			})
		}
	}
	return out
}

func scheduleDigest(arrs []arrival) string {
	h := fnv.New64a()
	for _, a := range arrs {
		fmt.Fprintf(h, "%d %d %s\n", a.rung, a.at, a.body)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// serveEnv is one serving stack: a session, its HTTP server on a loopback
// listener, and a client holding at most one h2c connection to it.
type serveEnv struct {
	session *serve.Session
	srv     *http.Server
	ln      *countingListener
	served  chan struct{}
	client  *http.Client
	url     string
	traceN  int // base trace length

	rec       *recorder
	handlerNS []atomic.Int64 // traced: handler wall time per arrival
	stop      chan struct{}
	advancing sync.WaitGroup

	inflight, inflightPeak atomic.Int64
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// newServeEnv builds dynamoserve's default stack: dynamollm under event
// fidelity on the open-source hour at peak 45, speed 60, looping. Set-up
// ends when /stats first answers 200. Traced, the benchmark advances the
// session itself and wraps the handler with a timing middleware.
func newServeEnv(rec *recorder, handlerNS []atomic.Int64) (*serveEnv, error) {
	setup := rec.begin(spSetup, 0, -1)
	defer rec.end(setup, 0, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sp := rec.begin(spTraceGen, 0, setup)
	base := trace.OpenSourceHour(peakRPS, serveSeed)
	rec.end(sp, 0, 0)
	sp = rec.begin(spProfileBuild, 0, setup)
	repo := profile.NewRepository(nil)
	repo.Get(model.Llama2_70B, 1)
	rec.end(sp, 0, 0)

	opts := core.DynamoLLM()
	opts.Fidelity = core.FidelityEvent
	opts.Seed = serveSeed
	opts.WarmLoad = func(t simclock.Time, c workload.Class) float64 {
		return trace.ExpectedRate(trace.Conversation, peakRPS, t+trace.OpenSourceHourStart, c)
	}
	sp = rec.begin(spNewLive, 0, setup)
	session := serve.New(serve.Config{
		Name: "dynamollm", Opts: opts, Trace: base, Speed: serveSpeed, Loop: true, Repo: repo,
	})
	rec.end(sp, 0, 0)

	e := &serveEnv{session: session, rec: rec, handlerNS: handlerNS, traceN: len(base),
		served: make(chan struct{}), stop: make(chan struct{})}
	var handler http.Handler = serve.NewHandler(session, requestTimeout)
	if rec == nil {
		session.Start()
	} else {
		e.advanceLoop()
		handler = e.timed(handler)
	}

	var h2c http.Protocols
	h2c.SetUnencryptedHTTP2(true)
	e.ln = &countingListener{Listener: ln}
	e.url = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: handler, Protocols: &h2c, HTTP2: &http.HTTP2Config{MaxConcurrentStreams: maxStreams}}
	go func() {
		defer close(e.served)
		_ = e.srv.Serve(e.ln) // ErrServerClosed once close shuts it down
	}()
	e.client = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{Protocols: &h2c, MaxConnsPerHost: 1}}

	resp, err := e.client.Get(e.url + "/stats")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /stats: %s", resp.Status)
		}
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// advanceLoop advances the session on the interval Session.Start uses
// (half a tick of wall time), recording each Advance as a span.
func (e *serveEnv) advanceLoop() {
	wallS := serveTick / 2 / serveSpeed
	interval := time.Duration(wallS * float64(time.Second))
	e.rec.nameLane(1, "session advance")
	e.advancing.Add(1)
	go func() {
		defer e.advancing.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				sp := e.rec.begin(spAdvance, 1, -1)
				n := e.session.Advance()
				e.rec.end(sp, 0, int64(n))
			}
		}
	}()
}

// timed wraps the handler: requests carrying the benchmark's headers get
// a serve.handler span, child of the client's http.request span, and
// their handler time is kept per arrival.
func (e *serveEnv) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		idx, err1 := strconv.Atoi(r.Header.Get(requestHeader))
		parent, err2 := strconv.Atoi(r.Header.Get(spanHeader))
		if err1 != nil || err2 != nil || idx < 0 || idx >= len(e.handlerNS) {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		sp := e.rec.begin(spHandler, 3, int32(parent))
		h.ServeHTTP(w, r)
		e.rec.end(sp, int64(idx), 0)
		e.handlerNS[idx].Store(int64(time.Since(t0)))
	})
}

// close shuts the stack down: the session first, which resolves every
// waiter, then the server. It returns the session's final result.
func (e *serveEnv) close() *core.Result {
	close(e.stop)
	e.advancing.Wait()
	res, _ := e.session.Close()
	e.client.CloseIdleConnections()
	e.srv.Close()
	<-e.served
	return res
}

// outcome is one request's fate.
type outcome struct {
	lateNS    int64   // dispatched after its due time
	latencyNS int64   // from due time to completion
	serviceS  float64 // simulated service time, virtual seconds
	handlerNS int64
	ok        bool
	problem   string
}

func (o outcome) overheadMS() float64 {
	return float64(o.latencyNS)/1e6 - o.serviceS/serveSpeed*1e3
}

// runRung sends one rung's schedule open-loop and waits for every reply.
// idx0 is the first arrival's index in the whole schedule.
func (e *serveEnv) runRung(arrs []arrival, idx0 int, tagged bool) []outcome {
	outs := make([]outcome, len(arrs))
	var wg sync.WaitGroup
	start := time.Now()
	for j := range arrs {
		due := start.Add(arrs[j].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		outs[j].lateNS = int64(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.send(arrs[j].body, idx0+j, due, tagged, &outs[j])
		}()
	}
	wg.Wait()
	return outs
}

// send makes one blocking POST /request and checks the completion.
func (e *serveEnv) send(body []byte, idx int, due time.Time, tagged bool, o *outcome) {
	n := e.inflight.Add(1)
	for p := e.inflightPeak.Load(); n > p; p = e.inflightPeak.Load() {
		if e.inflightPeak.CompareAndSwap(p, n) {
			break
		}
	}
	defer e.inflight.Add(-1)
	req, err := http.NewRequest(http.MethodPost, e.url+"/request", bytes.NewReader(body))
	if err != nil {
		o.problem = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	sp := int32(-1)
	if tagged {
		sp = e.rec.begin(spRequest, 2, -1)
		req.Header.Set(requestHeader, strconv.Itoa(idx))
		req.Header.Set(spanHeader, strconv.Itoa(int(sp)))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		e.rec.end(sp, int64(idx), 0)
		o.problem = "transport: " + err.Error()
		return
	}
	var c serve.Completion
	decErr := json.NewDecoder(resp.Body).Decode(&c)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	o.latencyNS = int64(time.Since(due))
	e.rec.end(sp, int64(idx), int64(resp.StatusCode))
	if tagged {
		o.handlerNS = e.handlerNS[idx].Load()
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		o.problem = "status " + resp.Status
	case decErr != nil:
		o.problem = "malformed completion: " + decErr.Error()
	case c.Squashed:
		o.problem = "squashed"
	case c.FinishedAt < c.AcceptedAt:
		o.problem = fmt.Sprintf("finished_at %v before accepted_at %v", c.FinishedAt, c.AcceptedAt)
	default:
		o.ok = true
		o.serviceS = float64(c.FinishedAt - c.AcceptedAt)
	}
}

// rungStats summarizes one rung.
type rungStats struct {
	Rate          float64 `json:"rate"`
	Sent          int     `json:"sent"`
	Succeeded     int     `json:"succeeded"`
	Failed        int     `json:"failed"`
	OverheadP50MS float64 `json:"overhead_p50_ms"`
	OverheadP99MS float64 `json:"overhead_p99_ms"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	GenLateP99MS  float64 `json:"gen_late_p99_ms"`
	// GoodputRPS counts, per second of the rung's schedule, the requests
	// answered 200 within the overhead limit.
	GoodputRPS float64 `json:"goodput_rps"`
	// WallS is the rung's wall time, from its start until the last reply.
	WallS float64 `json:"wall_s"`
}

func summarize(rate float64, dur, wall time.Duration, outs []outcome) rungStats {
	st := rungStats{Rate: rate, Sent: len(outs), WallS: wall.Seconds()}
	var over, lat, late []float64
	good := 0
	for _, o := range outs {
		late = append(late, float64(o.lateNS)/1e6)
		if !o.ok {
			st.Failed++
			continue
		}
		st.Succeeded++
		over = append(over, o.overheadMS())
		lat = append(lat, float64(o.latencyNS)/1e6)
		if o.overheadMS() <= overheadLimitMS {
			good++
		}
	}
	st.GoodputRPS = float64(good) / dur.Seconds()
	st.OverheadP50MS, st.OverheadP99MS = percentile(over, 50), percentile(over, 99)
	st.LatencyP50MS, st.LatencyP99MS = percentile(lat, 50), percentile(lat, 99)
	st.GenLateP99MS = percentile(late, 99)
	return st
}

// maxRPS is the rate at which overhead p99 reaches the limit, interpolated
// linearly between rungs (below the first rung, toward 0 ms at 0 req/s).
// A rung with failures caps it at the rung below; if every rung stays
// within the limit it is the top rung.
func maxRPS(rungs []rungStats) float64 {
	prevRate, prevP99 := 0.0, 0.0
	for _, r := range rungs {
		if r.Failed > 0 {
			return prevRate
		}
		if r.OverheadP99MS > overheadLimitMS {
			return prevRate + (overheadLimitMS-prevP99)/(r.OverheadP99MS-prevP99)*(r.Rate-prevRate)
		}
		prevRate, prevP99 = r.Rate, r.OverheadP99MS
	}
	return prevRate
}

// runServe measures the serving path: set-up repeated on fresh state, then
// the rungs, sharing the time budget equally. Traced, it first sends an
// untagged reference rung at the overhead rate, whose overhead p50 against
// the first tagged rung at that rate gives the tracing overhead.
func runServe(cfg config, rec *recorder) (*report, error) {
	rep := newReport()
	rates := serveRates
	if cfg.trace {
		rates = append([]float64{overheadRate}, serveRates...)
	}
	rungDur := time.Duration(cfg.seconds / float64(len(rates)) * float64(time.Second))
	if cfg.short {
		rungDur = time.Second / 2
	}
	arrs := schedule(cfg.seed, rates, rungDur)
	rep.digest = scheduleDigest(arrs)
	handlerNS := make([]atomic.Int64, len(arrs))

	var env *serveEnv
	setupS, err := repeatSetup(cfg, func() (func(), error) {
		e, err := newServeEnv(rec, handlerNS)
		if err != nil {
			return nil, err
		}
		env = e
		return func() { e.close() }, nil
	})
	if err != nil {
		return nil, err
	}
	rep.endToEnd["setup_s"] = setupS

	var (
		rungs   []rungStats
		tagged  []outcome
		late    []float64
		results []*core.Result
		g0      goCounters
		idx     int
		// speed samples the host's speed before each rung. The serve
		// latencies are real time and are not rescaled; the factor is
		// printed so a reader can tell a slow host from a slow server.
		speed = speedMeter{ref: cfg.ref}
	)
	closeEnv := func() {
		if conns := env.ln.accepted.Load(); conns != 1 {
			rep.fail("client opened %d connections; the load must come over one", conns)
		}
		res := env.close()
		if err := res.CheckInvariants(); err != nil {
			rep.fail("session result: %v", err)
		}
		results = append(results, res)
	}
	for r, rate := range rates {
		// Every rung starts on a fresh session, so no rung inherits the
		// cluster state the previous rung's load left behind.
		if r > 0 {
			closeEnv()
			runtime.GC()
			if env, err = newServeEnv(rec, handlerNS); err != nil {
				return nil, err
			}
		}
		n := 0
		for idx+n < len(arrs) && arrs[idx+n].rung == r {
			n++
		}
		speed.add(rungSamples)
		tag := cfg.trace && r > 0
		if tag && r == 1 {
			g0 = readGoCounters()
		}
		t0 := time.Now()
		outs := env.runRung(arrs[idx:idx+n], idx, tag)
		idx += n
		rungs = append(rungs, summarize(rate, rungDur, time.Since(t0), outs))
		if tag {
			tagged = append(tagged, outs...)
			L := rep.perLayer
			L["serve.inflight_peak"] = max(L["serve.inflight_peak"], float64(env.inflightPeak.Load()))
		}
		rep.endToEnd["live_heap_mb"] += liveHeapMB() / float64(len(rates))
		for _, o := range outs {
			late = append(late, float64(o.lateNS)/1e6)
			rep.attempted++
			if !o.ok {
				rep.failed++
				if rep.failed <= 5 {
					rep.fail("rung %.0f req/s: %s", rate, o.problem)
				}
			}
		}
	}
	goDelta := readGoCounters().sub(g0)
	closeEnv()

	measured := rungs
	if cfg.trace {
		measured = rungs[1:] // the first rung is the untraced reference
	}
	if p99 := percentile(late, 99); p99 > genLateLimitMS {
		rep.fail("generator ran %.2f ms late at p99 (limit %.0f ms): the run is invalid", p99, genLateLimitMS)
	}
	p50, p99 := math.Inf(1), math.Inf(1)
	for _, r := range measured {
		if r.Rate == overheadRate {
			p50, p99 = min(p50, r.OverheadP50MS), min(p99, r.OverheadP99MS)
		}
	}
	rep.endToEnd["req_per_s"] = measured[len(measured)-1].GoodputRPS
	rep.endToEnd["overhead_p50_ms"] = p50
	rep.endToEnd["overhead_p99_ms"] = p99
	rep.diag["rungs"] = rungs
	rep.diag["speed_factor"] = speed.factor()
	rep.diag["max_rps"] = maxRPS(measured)
	rep.diag["failed_frac"] = ratio(float64(rep.failed), float64(rep.attempted))

	if cfg.trace {
		serveLayers(rep, rec, env, results, rungs, tagged, goDelta)
		if err := runProbes(rep, rec, profile.NewRepository(nil), cfg.ref); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// serveLayers computes the per-layer metrics of a traced serve run.
func serveLayers(rep *report, rec *recorder, env *serveEnv, results []*core.Result, rungs []rungStats, tagged []outcome, g goCounters) {
	L := rep.perLayer
	ms := func(ns float64) float64 { return ns / 1e6 }
	mid := rungs[2] // the first traced rung at overheadRate
	L["bench.trace_overhead_frac"] = ratio(mid.OverheadP50MS, rungs[0].OverheadP50MS) - 1
	L["trace.gen_ms"] = ms(median(rec.durations(spTraceGen)))
	L["trace.entries"] = float64(env.traceN)
	L["profile.build_ms"] = ms(median(rec.durations(spProfileBuild)))
	L["core.newlive_ms"] = ms(median(rec.durations(spNewLive)))
	for _, res := range results[1:] { // the tagged rungs' sessions
		L["core.ticks"] += res.Duration / serveTick
		L["core.requests"] += float64(res.Requests)
		L["core.completed"] += float64(res.Completed)
		L["core.squashed"] += float64(res.Squashed)
		L["core.retried"] += float64(res.Retried)
		L["core.reshards"] += float64(res.Reshards)
		L["core.scale_outs"] += float64(res.ScaleOuts)
		L["core.scale_ins"] += float64(res.ScaleIns)
	}
	L["go.alloc_mb"] = g.allocBytes / (1 << 20)
	L["go.gc_cpu_frac"] = ratio(g.gcCPU, g.totalCPU)

	handler := rec.durations(spHandler)
	L["serve.handler_ms_p50"] = ms(percentile(handler, 50))
	L["serve.handler_ms_p99"] = ms(percentile(handler, 99))
	var service, excess, late []float64
	for _, o := range tagged {
		late = append(late, float64(o.lateNS)/1e6)
		if o.ok {
			s := o.serviceS / serveSpeed * 1e3
			service = append(service, s)
			excess = append(excess, float64(o.handlerNS)/1e6-s)
		}
	}
	L["serve.sim_service_ms_p50"] = percentile(service, 50)
	L["serve.wait_excess_ms_p50"] = percentile(excess, 50)
	L["serve.wait_excess_ms_p99"] = percentile(excess, 99)
	adv := rec.durations(spAdvance)
	L["serve.advance_ms_p50"] = ms(percentile(adv, 50))
	L["serve.advance_ms_p99"] = ms(percentile(adv, 99))
	L["serve.advance_ticks_p99"] = percentile(rec.values(spAdvance), 99)
	L["serve.lock_busy_frac"] = ratio(sum(adv), float64(rec.now()))
	L["serve.gen_late_ms_p99"] = percentile(late, 99)
	L["serve.latency_p50_ms"] = mid.LatencyP50MS
	L["serve.latency_p99_ms"] = mid.LatencyP99MS
}
