package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"ribbon/api"
	"ribbon/internal/cloud"
	"ribbon/internal/dispatch"
	"ribbon/internal/experiments"
	"ribbon/internal/gateway"
	"ribbon/internal/models"
	"ribbon/internal/perf"
	"ribbon/internal/serving"
	"ribbon/internal/stats"
	"ribbon/internal/workload"
)

const (
	inferModel = "CANDLE"
	// inferFixedRate is the fixed mid rate (req/s) the latency and CPU
	// metrics are measured at: about a quarter of what a 2-vCPU VM sustains.
	// CPU per request there spread half as much across seeds as at 3000
	// req/s, where parking and waking goroutines dominate it; the median
	// latency is steadier at 3000 but carries no bound.
	inferFixedRate = 10000
	// inferLadderBase is the ladder's first rung; rungs grow by
	// inferLadderGrowth until one fails, then inferBisections halvings in
	// log space between the last pass and the first failure set the
	// resolution (1.5^(1/16), about 2.6%).
	inferLadderBase   = 16000
	inferLadderGrowth = 1.5
	inferBisections   = 4
	inferMaxRungs     = 12
	inferLadders      = 3
	// inferP99LimitMs is the ladder's latency limit. It sits well above the
	// 5–15 ms idle scheduler stalls of a shared VM, so a rung fails on a
	// growing backlog, not on one stall.
	inferP99LimitMs = 50
	// inferMaxLateP50Ms is the generator's median lateness beyond which a
	// rung is invalid.
	inferMaxLateP50Ms = 2
	// inferMinStep is the fewest requests a measured step sends: ten
	// beyond its p99.
	inferMinStep = 1000
	// inferSetups is how many times the gateway starts, each on its own
	// seed, so the cold start's pool price is a mean over searches.
	inferSetups  = 5
	inferWindows = 10
)

// inferMix is the criticality mix of the generated traffic (critical :
// standard : sheddable).
var inferMix = workload.ClassMix{Critical: 1, Standard: 2, Sheddable: 1}

// nullBackend answers every batch at once with the modelled service time
// and echoes each payload back, so the gateway's ingress, not the backend,
// bounds the request rate. Traced, it records when each request's batch
// reached the backend.
type nullBackend struct {
	model models.Profile
	tr    *tracer
	calls atomic.Int64
	reqs  atomic.Int64
}

func (b *nullBackend) Serve(_ context.Context, t cloud.InstanceType, batch *gateway.Batch) (float64, error) {
	batch.Bodies = batch.Payloads
	if b.tr.on() {
		now := b.tr.now()
		b.calls.Add(1)
		b.reqs.Add(int64(batch.Requests))
		for _, p := range batch.Payloads {
			seq, _ := strconv.ParseUint(string(p), 10, 64) // the benchmark wrote it
			b.tr.add("gateway.backend", 0, seq, now, now)
		}
	}
	return perf.ServiceMs(b.model, t, batch.Samples), nil
}

// server is one gateway serving HTTP on loopback, plus the client
// connections the generator uses.
type server struct {
	gw    *gateway.Gateway
	srv   *http.Server
	addr  string
	done  chan struct{}
	conns []*clientConn
}

type clientConn struct {
	c  net.Conn
	br *bufio.Reader
}

func inferSpec() serving.PoolSpec {
	return serving.MustNewPoolSpec(models.MustLookup(inferModel), 0.99, experiments.PoolFor(inferModel)...)
}

// startServer starts the gateway as a deployment without a given pool does
// — bounds discovery and a cold search pick the CANDLE pool (Table 3 types)
// — and serves its handler on a loopback port.
func startServer(seed uint64, tr *tracer, nb *nullBackend) (*server, error) {
	gw, err := gateway.New(context.Background(), gateway.Options{
		Spec:     inferSpec(),
		Backend:  nb,
		Dispatch: dispatch.Spec{Kind: dispatch.KindCriticality},
		Sim:      serving.SimOptions{Seed: seed},
		Seed:     seed,
	})
	if err != nil {
		return nil, fmt.Errorf("infer: gateway: %w", err)
	}
	h := gw.Handler()
	if tr.on() {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := tr.now()
			inner.ServeHTTP(w, r)
			seq, _ := strconv.ParseUint(r.Header.Get("X-Request-Id"), 10, 64)
			tr.add("gateway.handler", 0, seq, start, tr.now())
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return nil, fmt.Errorf("infer: listen: %w", err)
	}
	s := &server{gw: gw, srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// connect opens the generator's nconn keep-alive connections, each warmed
// by one request.
func (s *server) connect(nconn int) error {
	for i := 0; i < nconn; i++ {
		c, err := net.Dial("tcp", s.addr)
		if err != nil {
			return fmt.Errorf("infer: dial: %w", err)
		}
		cc := &clientConn{c: c, br: bufio.NewReader(c)}
		s.conns = append(s.conns, cc)
		if _, _, err := cc.do(inferRequest(0, workload.Query{Batch: 1})); err != nil {
			return fmt.Errorf("infer: warm-up request: %w", err)
		}
	}
	return nil
}

func (s *server) stop() {
	for _, c := range s.conns {
		c.c.Close()
	}
	s.srv.Close()
	<-s.done
	s.gw.Close()
}

// inferRequest encodes one POST /v1/infer carrying its sequence id both as
// the payload (echoed by the backend) and as X-Request-Id.
func inferRequest(seq uint64, q workload.Query) []byte {
	id := strconv.FormatUint(seq, 10)
	body, _ := json.Marshal(api.InferRequest{Class: string(q.Class), Batch: q.Batch, Payload: id}) // plain struct
	return fmt.Appendf(nil, "POST /v1/infer HTTP/1.1\r\nHost: gateway\r\nContent-Type: application/json\r\n"+
		"X-Request-Id: %s\r\nContent-Length: %d\r\n\r\n%s", id, len(body), body)
}

// do sends one request and reads the whole response.
func (c *clientConn) do(req []byte) (int, []byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// phase is one open-loop run at one offered rate.
type phase struct {
	firstSeq     uint64
	queries      []workload.Query
	status       []int
	bodies       [][]byte
	lr           loadResult
	latMs        []float64 // per request from its due time; +Inf when it failed
	cpu          time.Duration
	allocs, sent uint64
	gcFrac       float64
	pass, valid  bool
	critFailed   int
}

// runPhase offers rate req/s for seconds (stretched to inferMinStep
// requests) and times every response.
func runPhase(s *server, tr *tracer, seed uint64, label string, firstSeq uint64, rate, seconds float64) *phase {
	n := max(int(rate*seconds), inferMinStep)
	m := models.MustLookup(inferModel)
	qs := workload.Generate(m, workload.Options{Queries: n, Seed: seed, Mix: inferMix}).Queries
	p := &phase{firstSeq: firstSeq, queries: qs, status: make([]int, n), bodies: make([][]byte, n)}
	reqs := make([][]byte, n)
	due := make([]time.Duration, n)
	stretch := m.ArrivalRateQPS / rate
	for i, q := range qs {
		due[i] = time.Duration(q.ArrivalMs * stretch * float64(time.Millisecond))
		reqs[i] = inferRequest(firstSeq+uint64(i), q)
	}

	proc0, cpu0 := readProc(), cpuTime()
	p.lr = runOpenLoop(due, len(s.conns), func(c, i int) error {
		start := tr.now()
		code, body, err := s.conns[c].do(reqs[i])
		tr.add("http.client", 0, firstSeq+uint64(i), start, tr.now())
		p.status[i], p.bodies[i] = code, body
		return err
	})
	p.cpu = cpuTime() - cpu0
	proc1 := readProc()
	p.allocs, p.gcFrac, p.sent = proc1.allocs-proc0.allocs, proc1.gcFraction(proc0), uint64(n)

	// Achieved rate: 200s completed by the end of the schedule plus the
	// latency limit, so a backlog that outlives the schedule shows.
	schedEnd := due[n-1] + time.Duration(inferP99LimitMs*float64(time.Millisecond))
	okInTime := 0
	lateMs := make([]float64, n)
	p.latMs = make([]float64, n)
	for i := range qs {
		lateMs[i] = float64(p.lr.late[i]) / 1e6
		if p.lr.errs[i] != nil || p.status[i] != http.StatusOK {
			p.latMs[i] = math.Inf(1)
			continue
		}
		p.latMs[i] = float64(p.lr.done[i]-due[i]) / 1e6
		if p.lr.done[i] <= schedEnd {
			okInTime++
		}
	}
	achieved := float64(okInTime) / (float64(n) / rate)
	p50, _ := percentile(p.latMs, 0.5)
	p99, _ := percentile(p.latMs, 0.99)
	p.pass = achieved >= 0.99*rate && p99 <= inferP99LimitMs
	// The generator fell behind when it released the typical request late:
	// a stall delays a few requests, a starved generator delays them all.
	lateP50Ms, _ := percentile(lateMs, 0.5)
	lateP99Ms, _ := percentile(lateMs, 0.99)
	p.valid = lateP50Ms <= inferMaxLateP50Ms
	fmt.Printf("infer %-6s offered=%8.1f req/s achieved=%8.1f p50=%.3fms p99=%.3fms generator_late_p50=%.3fms p99=%.3fms pass=%v valid=%v n=%d\n",
		label, rate, achieved, p50, p99, lateP50Ms, lateP99Ms, p.pass, p.valid, n)
	return p
}

// check validates every response of the phase: a 200 must decode as a
// queued InferResponse echoing the request's own sequence id.
func (p *phase) check(r *result) {
	for i, q := range p.queries {
		r.attempted++
		switch {
		case p.lr.errs[i] != nil:
			r.failed++
			r.check(false, "infer: request %d: %v", p.firstSeq+uint64(i), p.lr.errs[i])
		case p.status[i] == http.StatusOK:
			var resp api.InferResponse
			err := json.Unmarshal(p.bodies[i], &resp)
			want := strconv.FormatUint(p.firstSeq+uint64(i), 10)
			r.check(err == nil && resp.Outcome == "queued" && resp.Body == want,
				"infer: request %s: bad 200 body %q", want, p.bodies[i])
		case p.status[i] == http.StatusServiceUnavailable:
			r.failed++
			if q.Class == workload.ClassCritical {
				p.critFailed++
			}
		default:
			r.failed++
			r.check(false, "infer: request %d: status %d", p.firstSeq+uint64(i), p.status[i])
		}
	}
}

func runInfer(cfg runConfig) (*result, error) {
	r := &result{primary: "infer.latency_ms.p50"}
	nconn := runtime.NumCPU()
	spec := inferSpec()

	// Set-up, repeated on derived seeds: only the last server is kept for
	// measuring. The generator's connections are the benchmark's own,
	// opened untimed.
	var setupS []float64
	var s *server
	poolUSD := 0.0
	nb := &nullBackend{model: models.MustLookup(inferModel), tr: cfg.tr}
	for i := 0; i < inferSetups; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		var err error
		if s, err = startServer(stats.DeriveSeed(cfg.seed, "infer", "setup", strconv.Itoa(i)), cfg.tr, nb); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		poolUSD += spec.Cost(s.gw.Config()) / inferSetups
	}
	defer s.stop()
	fmt.Printf("infer serves on pool %v\n", s.gw.Config())
	if err := s.connect(nconn); err != nil {
		return nil, err
	}

	// A third of the time at the fixed rate (after a short warm-up), the
	// rest on the ladder.
	seq, phases, sent := uint64(1), 0, uint64(nconn) // one warm-up request per connection
	run := func(label string, rate, seconds float64) *phase {
		p := runPhase(s, cfg.tr, stats.DeriveSeed(cfg.seed, "infer", label, strconv.Itoa(phases)), label, seq, rate, seconds)
		seq += uint64(len(p.queries))
		sent += p.sent
		phases++
		p.check(r)
		p.bodies = nil
		return p
	}
	run("warmup", inferFixedRate, 0.05*cfg.seconds)
	// The fixed rate runs as inferWindows windows interleaved with the
	// ladder's rungs, so they sample the whole run; each latency and CPU
	// figure is the median over windows, so a burst of host stalls spoils
	// one window, not the run's figure.
	spansBefore, calls0, reqs0 := len(cfg.tr.snapshot()), nb.calls.Load(), nb.reqs.Load()
	var p50s, p99s, cpus, allocs, gcs []float64
	fixedSent, critFailed := 0, 0
	window := func() {
		if len(p50s) == inferWindows {
			return
		}
		p := run("fixed", inferFixedRate, cfg.seconds/3/inferWindows)
		v50, _ := percentile(p.latMs, 0.5)
		v99, _ := percentile(p.latMs, 0.99)
		p50s, p99s = append(p50s, v50), append(p99s, v99)
		cpus = append(cpus, float64(p.cpu)/1e3/float64(p.sent))
		allocs = append(allocs, float64(p.allocs)/float64(p.sent))
		gcs = append(gcs, p.gcFrac)
		fixedSent += len(p.queries)
		critFailed += p.critFailed
	}

	// The ladder: from the base rung up (or down, if the base fails) by
	// inferLadderGrowth until one rung passes and one fails, then bisect.
	// It runs inferLadders times and max_rps is the median ladder, so one
	// burst of host contention moves one ladder, not the figure.
	var steps []step
	var ladders []float64
	ladder := func(interleave bool) {
		var rungs []step
		ok := func(rate float64) bool {
			if interleave && len(steps)%2 == 0 {
				window()
			}
			p := run("ladder", rate, cfg.seconds/40)
			st := step{rate: rate, pass: p.pass, valid: p.valid}
			rungs, steps = append(rungs, st), append(steps, st)
			return p.pass && p.valid
		}
		lo, hi := 0.0, 0.0
		for rate := float64(inferLadderBase); (lo == 0 || hi == 0) && len(rungs) < inferMaxRungs; {
			if ok(rate) {
				lo, rate = rate, rate*inferLadderGrowth
			} else {
				hi, rate = rate, rate/inferLadderGrowth
			}
		}
		for i := 0; i < inferBisections && lo > 0 && hi > 0; i++ {
			if mid := math.Sqrt(lo * hi); ok(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		best, found := maxRate(rungs)
		r.check(found, "infer: no ladder rung met the limits, down to %.0f req/s", rungs[len(rungs)-1].rate)
		ladders = append(ladders, best)
	}
	// Both halves of a traced run measure the fixed-rate windows back to
	// back, so they compare; the untraced half runs the ladders after them.
	for l := 0; l < inferLadders && !cfg.perLayer; l++ {
		ladder(true)
	}
	for len(p50s) < inferWindows {
		window()
	}
	fixedSpans := cfg.tr.snapshot()[spansBefore:]
	calls, reqs := float64(nb.calls.Load()-calls0), float64(nb.reqs.Load()-reqs0)
	for l := 0; l < inferLadders && cfg.perLayer && !cfg.tr.on(); l++ {
		ladder(false)
	}
	r.check(critFailed == 0, "infer: %d critical requests shed or rejected at the fixed rate", critFailed)
	maxRPS := 0.0
	if len(ladders) > 0 {
		maxRPS = median(ladders)
	}

	// Conservation: every request the gateway saw was served, shed,
	// rejected or failed, and it saw exactly what was sent.
	m := s.gw.Metrics()
	var offered uint64
	for _, t := range m.Tiers {
		offered += t.Requests
	}
	r.check(offered == m.Completed+m.Shed+m.Rejected+m.Failed,
		"infer: gateway requests %d != served %d + shed %d + rejected %d + failed %d",
		offered, m.Completed, m.Shed, m.Rejected, m.Failed)
	r.check(offered == sent, "infer: gateway counted %d requests, the generator sent %d", offered, sent)

	r.e2e = []metric{
		{name: "setup_s", unit: "s", value: median(setupS), samples: len(setupS)},
		{name: "infer.max_rps", unit: "1/s", value: maxRPS, samples: len(ladders)},
		{name: "cpu_ms_per_op", unit: "ms", value: median(cpus) / 1000, samples: fixedSent},
		{name: "cost_usd", unit: "usd", value: poolUSD, samples: inferSetups},
		{name: "infer.latency_ms.p50", unit: "ms", value: median(p50s), samples: fixedSent},
		{name: "infer.latency_ms.p99", unit: "ms", value: median(p99s), samples: fixedSent},
		{name: "infer.cpu_us_per_req", unit: "us", value: median(cpus), samples: fixedSent},
	}
	if !cfg.tr.on() {
		return r, nil
	}

	// Per-layer numbers come from the fixed-rate phase, one rate.
	type reqSpans struct{ client, handler, backend *span }
	bySeq := make(map[uint64]*reqSpans)
	for i := range fixedSpans {
		sp := &fixedSpans[i]
		rs := bySeq[sp.trace]
		if rs == nil {
			rs = &reqSpans{}
			bySeq[sp.trace] = rs
		}
		switch sp.name {
		case "http.client":
			rs.client = sp
		case "gateway.handler":
			rs.handler = sp
		case "gateway.backend":
			rs.backend = sp
		}
	}
	var handlerUs, waitUs, overheadUs []float64
	for _, rs := range bySeq {
		if rs.handler == nil {
			continue
		}
		handlerUs = append(handlerUs, float64(rs.handler.end-rs.handler.start)/1e3)
		if rs.backend != nil {
			waitUs = append(waitUs, float64(rs.backend.start-rs.handler.start)/1e3)
		}
		if rs.client != nil {
			overheadUs = append(overheadUs, float64((rs.client.end-rs.client.start)-(rs.handler.end-rs.handler.start))/1e3)
		}
	}
	hp50, _ := percentile(handlerUs, 0.5)
	hp99, _ := percentile(handlerUs, 0.99)
	wp50, _ := percentile(waitUs, 0.5)
	wp99, _ := percentile(waitUs, 0.99)
	op50, _ := percentile(overheadUs, 0.5)
	r.layers = layerMetrics(map[string]float64{
		"gateway.handler_us.p50":            hp50,
		"gateway.handler_us.p99":            hp99,
		"gateway.queue_wait_us.p50":         wp50,
		"gateway.queue_wait_us.p99":         wp99,
		"gateway.backend.calls":             calls,
		"gateway.backend.requests_per_call": reqs / math.Max(1, calls),
		"http.overhead_us.p50":              op50,
		"proc.allocs_per_req":               median(allocs),
		"proc.gc_cpu_fraction":              median(gcs),
	})
	r.spans = cfg.tr.snapshot()
	return r, nil
}
