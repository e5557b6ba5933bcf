package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/systolic"
	"repro/systolic/serve"
)

// serve-mixed: gossipd's server (serve.New with two workers and a spool
// directory) behind httptest on loopback, driven over at most two client
// connections: a long open-loop Poisson rung at the nominal rate, a ladder
// of rising open-loop rates that ends at the first rung whose backlog runs
// away, and a closed-loop saturation phase that measures capacity.

const (
	serveWorkers = 2
	serveConns   = 2
	// serveNominalRate is the rate p50_ms and p99_ms are reported at.
	serveNominalRate = 400.0
	// serveZipf is the popularity skew of the hot key spaces.
	serveZipf = 1.1
	// serveEarly is how early the generator wakes for a request: sleeps on
	// the reference machine overshoot by up to several milliseconds. A
	// request sent before its due time is timed from its send, one sent
	// late from its due time.
	serveEarly = 3 * time.Millisecond
	// serveLimit is the p99 latency limit of max_ok_rps, fixed from
	// measurements on the reference machine (see README.md).
	serveLimit = 50 * time.Millisecond
	// Share of --seconds for the nominal rung and for each ladder rung.
	serveNominalShare = 0.6
	serveRungShare    = 0.08
	serveSatShare     = 0.15
	serveTrials       = 16
	serveSweepJobs    = 2
	// serveDrainCap bounds the wait for a rung's stragglers.
	serveDrainCap = 20 * time.Second
	// serveSetupRepeats is how many times serve-mixed sets up. A set-up
	// takes under 0.1 s on the reference machine, so setup_s is the median
	// of more of them than the other workloads take.
	serveSetupRepeats = 9
)

// serveLadder are the ladder rates in requests per second, in steps of 2.
// The last rung is well past the knee of the reference machine (about
// 4000/s), so the ladder ends overloaded.
var serveLadder = []float64{500, 1000, 2000, 4000, 8000}

// serveKey is one (kind, size, protocol) request target.
type serveKey struct {
	Kind     string
	Size     Size
	Protocol string
}

// lightKeys are admitted pairs at their smallest size whose cold
// certification takes about a millisecond: the hot, tail, sweep and async
// key spaces draw from them.
var lightKeys = func() []serveKey {
	var ks []serveKey
	add := func(kind string, protos ...string) {
		for _, p := range protos {
			ks = append(ks, serveKey{kind, certifySizes[kind][0], p})
		}
	}
	add("hypercube", "periodic-full", "hypercube", "greedy-full", "doubling", "periodic-half", "periodic-interleaved", "greedy-half")
	add("cycle", "periodic-full", "periodic-half", "round-robin", "zigzag", "greedy-full")
	add("path", "periodic-full", "round-robin", "periodic-half", "zigzag", "periodic-interleaved")
	add("complete", "hypercube", "zigzag", "greedy-full")
	add("torus", "periodic-full", "greedy-full", "round-robin", "periodic-interleaved", "greedy-directed", "greedy-half")
	add("grid", "periodic-full", "greedy-full")
	add("butterfly", "periodic-full", "periodic-half", "periodic-interleaved", "greedy-full", "greedy-half", "greedy-directed", "round-robin")
	add("tree", "periodic-full")
	add("shuffle-exchange", "periodic-full", "greedy-full")
	add("ccc", "greedy-full")
	add("debruijn-digraph", "round-robin")
	add("wbf-digraph", "round-robin")
	add("kautz-digraph", "round-robin")
	return ks
}()

// emptyBroadcastKinds answer a single-source POST /v1/broadcast with
// status 200 and an empty body (the report does not encode), e.g.
//
//	POST /v1/broadcast {"kind":"path","params":{"nodes":16},"source":7}
//
// so the hot-broadcast key space leaves them out until that is fixed.
var emptyBroadcastKinds = map[string]bool{"path": true, "cycle": true}

// scanKeys are the all-source broadcast scan targets, 64 ≤ n ≤ 512: small
// enough that a scan rarely holds a connection for more than a few
// milliseconds.
var scanKeys = []serveKey{
	{"hypercube", Size{"dimension": 6}, ""}, {"hypercube", Size{"dimension": 7}, ""},
	{"hypercube", Size{"dimension": 8}, ""}, {"hypercube", Size{"dimension": 9}, ""},
	{"debruijn", Size{"degree": 2, "diameter": 6}, ""}, {"debruijn", Size{"degree": 2, "diameter": 7}, ""},
	{"debruijn", Size{"degree": 2, "diameter": 8}, ""},
	{"kautz", Size{"degree": 2, "diameter": 6}, ""}, {"kautz", Size{"degree": 2, "diameter": 7}, ""},
	{"torus", Size{"rows": 8, "cols": 8}, ""}, {"torus", Size{"rows": 16, "cols": 16}, ""},
	{"ccc", Size{"dimension": 5}, ""}, {"ccc", Size{"dimension": 6}, ""},
	{"butterfly", Size{"degree": 2, "diameter": 5}, ""}, {"butterfly", Size{"degree": 2, "diameter": 6}, ""},
	{"shuffle-exchange", Size{"dimension": 7}, ""}, {"shuffle-exchange", Size{"dimension": 8}, ""},
}

// classWeights is the request mix, in serveClasses order, in requests per
// 20. The first 16 follow the rotation of gossipd -loadtest (loadtestMix in
// cmd/gossipd): 7 analyze, 3 certify, 1 single-source broadcast, 2
// scenario certifications, 2 scans and 1 sweep. Its analyses are repeated
// keys, so they are the hot classes here. The 4 added requests are the
// classes the rotation lacks, at shares that are assumptions (README.md):
// 2 tail analyses, 1 async job and 1 invalid request.
var classWeights = []float64{7. / 20, 3. / 20, 1. / 20, 2. / 20, 2. / 20, 2. / 20, 1. / 20, 1. / 20, 1. / 20}

// Req is one scheduled request, a POST.
type Req struct {
	At     float64 `json:"at_s"` // due time after the rung's start
	Class  string  `json:"class"`
	Path   string  `json:"path"`
	Body   string  `json:"body"`
	Expect int     `json:"expect"` // expected status
	Repeat bool    `json:"repeat"` // the key repeats: its report must hash the same every time
}

// Rung is one fixed-rate stretch of the open-loop schedule.
type Rung struct {
	Name    string  `json:"name"`
	Rate    float64 `json:"rate"`
	Seconds float64 `json:"seconds"`
	Reqs    []Req   `json:"reqs"`
}

// ServePlan is the seeded serve-mixed input.
type ServePlan struct {
	Warm   []Req   // set-up: every hot key once, then every scan network once
	Rungs  []*Rung // nominal rung first, then the ladder
	Sat    *Rung   // the closed-loop saturation phase (due times unused)
	Traced *Rung   // second nominal rung for traced runs
}

// serveGen draws requests for one seed.
type serveGen struct {
	r          *rand.Rand
	hot        [3][]Req // per hot class, in Zipf rank order
	zipf       [3]*rand.Zipf
	scenarioKs []serveKey
}

func newServeGen(seed uint64) *serveGen {
	g := &serveGen{r: newRand(seed, "serve-keys")}
	for _, k := range lightKeys {
		if p := k.Protocol; p == "periodic-full" || p == "periodic-half" || p == "periodic-interleaved" {
			g.scenarioKs = append(g.scenarioKs, k)
		}
	}
	// Hot keys: analyze and certify over the light keys, single-source
	// broadcasts from 4 sources of each of their networks; the seed fixes
	// the sources and the popularity order.
	for _, i := range g.r.Perm(len(lightKeys)) {
		k := lightKeys[i]
		g.hot[0] = append(g.hot[0], mkReq("hot-analyze", "/v1/analyze", k, 0, http.StatusOK, true))
		g.hot[1] = append(g.hot[1], mkReq("hot-certify", "/v1/certify", k, 0, http.StatusOK, true))
	}
	seen := map[string]bool{}
	for _, k := range lightKeys {
		id := k.Kind + "|" + k.Size.canonical()
		if seen[id] || emptyBroadcastKinds[k.Kind] {
			continue
		}
		seen[id] = true
		net, err := systolic.New(k.Kind, k.Size.params()...)
		if err != nil {
			continue
		}
		for s := 0; s < 4; s++ {
			b := mustJSON(serve.AnalyzeRequest{Kind: k.Kind, Params: k.Size, Source: g.r.IntN(net.N())})
			g.hot[2] = append(g.hot[2], Req{Class: "hot-broadcast", Path: "/v1/broadcast", Body: b, Expect: http.StatusOK, Repeat: true})
		}
	}
	g.r.Shuffle(len(g.hot[2]), func(i, j int) { g.hot[2][i], g.hot[2][j] = g.hot[2][j], g.hot[2][i] })
	for c := range g.zipf {
		g.zipf[c] = rand.NewZipf(g.r, serveZipf, 1, uint64(len(g.hot[c])-1))
	}
	return g
}

func mkReq(class, path string, k serveKey, budget, expect int, repeat bool) Req {
	body := mustJSON(serve.AnalyzeRequest{Kind: k.Kind, Params: k.Size, Protocol: k.Protocol, Budget: budget})
	return Req{Class: class, Path: path, Body: body, Expect: expect, Repeat: repeat}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return string(b)
}

// next draws one request of the mix.
func (g *serveGen) next() Req {
	u := g.r.Float64()
	c := 0
	for ; c < len(classWeights)-1 && u >= classWeights[c]; c++ {
		u -= classWeights[c]
	}
	pick := func(ks []serveKey) serveKey { return ks[g.r.IntN(len(ks))] }
	switch serveClasses[c] {
	case "hot-analyze", "hot-certify", "hot-broadcast":
		return g.hot[c][g.zipf[c].Uint64()]
	case "tail":
		// Budgets are part of the program key, so the tail spans far more
		// keys than the 256-entry program cache.
		return mkReq("tail", "/v1/analyze", pick(lightKeys), systolic.DefaultRoundBudget+1+g.r.IntN(1<<16), http.StatusOK, false)
	case "scenario":
		k := pick(g.scenarioKs)
		body := mustJSON(serve.AnalyzeRequest{Kind: k.Kind, Params: k.Size, Protocol: k.Protocol,
			Scenario: &serve.ScenarioRequest{Scenario: systolic.Scenario{Loss: 0.05, Seed: g.r.Uint64()}, Trials: serveTrials}})
		return Req{Class: "scenario", Path: "/v1/certify", Body: body, Expect: http.StatusOK}
	case "scan":
		k := pick(scanKeys)
		// A fresh budget makes every scan a result-cache miss.
		body := mustJSON(serve.AnalyzeRequest{Kind: k.Kind, Params: k.Size, Budget: 1000 + g.r.IntN(1<<16),
			Sources: &serve.SourcesSpec{All: true}})
		return Req{Class: "scan", Path: "/v1/broadcast", Body: body, Expect: http.StatusOK}
	case "sweep":
		sw := serve.SweepRequest{Budget: systolic.DefaultRoundBudget + 1 + g.r.IntN(1<<16)}
		for i := 0; i < serveSweepJobs; i++ {
			k := pick(lightKeys)
			sw.Jobs = append(sw.Jobs, serve.SweepJobRequest{Kind: k.Kind, Params: k.Size, Protocol: k.Protocol})
		}
		return Req{Class: "sweep", Path: "/v1/sweep", Body: mustJSON(sw), Expect: http.StatusOK}
	case "async":
		return mkReq("async", "/v1/certify?async=true", pick(lightKeys), systolic.DefaultRoundBudget+1+g.r.IntN(1<<16), http.StatusAccepted, false)
	default: // invalid
		switch g.r.IntN(3) {
		case 0:
			return mkReq("invalid", "/v1/analyze", serveKey{"moebius", Size{"nodes": 8}, "periodic-full"}, 0, http.StatusBadRequest, false)
		case 1:
			return mkReq("invalid", "/v1/analyze", serveKey{"hypercube", Size{"dimension": 0}, "periodic-full"}, 0, http.StatusBadRequest, false)
		default:
			// Budget 1 cannot finish a 4-round gossip: a synchronous 422.
			return mkReq("invalid", "/v1/analyze", serveKey{"hypercube", Size{"dimension": 4}, "periodic-full"}, 1, http.StatusUnprocessableEntity, false)
		}
	}
}

// rung draws a Poisson schedule at rate for secs seconds.
func (g *serveGen) rung(name string, rate, secs float64) *Rung {
	rg := &Rung{Name: name, Rate: rate, Seconds: secs}
	for t := g.r.ExpFloat64() / rate; t < secs; t += g.r.ExpFloat64() / rate {
		q := g.next()
		q.At = t
		rg.Reqs = append(rg.Reqs, q)
	}
	return rg
}

func newServePlan(seed uint64, secs float64) *ServePlan {
	g := newServeGen(seed)
	p := &ServePlan{}
	for c := range g.hot {
		p.Warm = append(p.Warm, g.hot[c]...)
	}
	// The run's scans carry fresh budgets, so these never hit the result
	// cache; they warm the scan path.
	for _, k := range scanKeys {
		body := mustJSON(serve.AnalyzeRequest{Kind: k.Kind, Params: k.Size, Sources: &serve.SourcesSpec{All: true}})
		p.Warm = append(p.Warm, Req{Class: "scan", Path: "/v1/broadcast", Body: body, Expect: http.StatusOK})
	}
	p.Rungs = append(p.Rungs, g.rung("nominal", serveNominalRate, serveNominalShare*secs))
	for _, rate := range serveLadder {
		p.Rungs = append(p.Rungs, g.rung(fmt.Sprintf("ladder-%g", rate), rate, serveRungShare*secs))
	}
	// Enough requests for the saturation phase at the top rung's rate.
	p.Sat = g.rung("saturation", serveLadder[len(serveLadder)-1], serveSatShare*secs)
	p.Traced = g.rung("nominal-traced", serveNominalRate, serveNominalShare*secs)
	return p
}

// reqResult is the client-side outcome of one scheduled request.
type reqResult struct {
	class    string
	ok       bool
	latency  time.Duration // from the due time (or an early send) to the last response byte
	connWait time.Duration
	late     time.Duration // how late the generator sent it
	done     time.Time
	handler  time.Duration // server handler time
}

// serveRunner is one running server plus its client.
type serveRunner struct {
	srv     *serve.Server
	ts      *httptest.Server
	client  *http.Client
	chk     *Checker
	tr      atomic.Pointer[Tracer] // set while a traced rung runs
	mu      sync.Mutex
	hashes  map[string][32]byte // path and body → report hash, for repeated keys
	handler sync.Map            // request id → handler duration
	ids     atomic.Int64
}

func startServer(dir string, chk *Checker, hashes map[string][32]byte) (*serveRunner, error) {
	srv, err := serve.New(serve.Config{Workers: serveWorkers, SpoolDir: dir})
	if err != nil {
		return nil, err
	}
	sr := &serveRunner{srv: srv, chk: chk, hashes: hashes}
	sr.ts = httptest.NewServer(sr.middleware(srv.Handler()))
	sr.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
	}}
	return sr, nil
}

func (sr *serveRunner) close() {
	sr.client.CloseIdleConnections()
	sr.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), serveDrainCap)
	defer cancel()
	_ = sr.srv.Drain(ctx) // Close below cancels whatever did not drain
	sr.srv.Close()
}

// middleware times every request's handler — the server-side latency
// p50_ms reports — and, in traced runs, records it as a serve.handler span
// under the client's request span.
func (sr *serveRunner) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		if tr := sr.tr.Load(); tr != nil {
			parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
			tr.Record(0, parent, req, "serve.handler", t0, t1)
		}
		// An async operation's polls share its id and add up.
		if prev, ok := sr.handler.Load(req); ok {
			sr.handler.Store(req, prev.(time.Duration)+t1.Sub(t0))
		} else {
			sr.handler.Store(req, t1.Sub(t0))
		}
	})
}

// call sends one HTTP request and returns status and body.
func (sr *serveRunner) call(ctx context.Context, method, path, body string, req, span int64, connWait *time.Duration) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	hr, err := http.NewRequestWithContext(ctx, method, sr.ts.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
	hr.Header.Set("X-Bench-Span", strconv.FormatInt(span, 10))
	if connWait != nil {
		var get time.Time
		hr = hr.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GetConn: func(string) { get = time.Now() },
			GotConn: func(httptrace.GotConnInfo) { *connWait += time.Since(get) },
		}))
	}
	resp, err := sr.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, b, nil
}

// do runs one scheduled operation and checks its result; an async
// operation polls its job until it ends.
func (sr *serveRunner) do(ctx context.Context, q *Req, start time.Time, late time.Duration, tr *Tracer) reqResult {
	res := reqResult{class: q.Class, late: late}
	id := sr.ids.Add(1)
	span := tr.NewID()
	sr.chk.Attempt()
	status, body, err := sr.call(ctx, http.MethodPost, q.Path, q.Body, id, span, &res.connWait)
	switch {
	case err != nil:
		sr.chk.Fail("%s %s: %v", q.Class, q.Path, err)
	case status != q.Expect:
		sr.chk.Fail("%s %s: status %d, want %d: %.200s", q.Class, q.Path, status, q.Expect, body)
	default:
		res.ok = sr.validate(ctx, q, body, id, span, &res.connWait)
	}
	res.done = time.Now()
	res.latency = res.done.Sub(start)
	tr.Record(span, 0, id, "client.request", start, res.done)
	if h, ok := sr.handler.LoadAndDelete(id); ok {
		res.handler = h.(time.Duration)
	}
	return res
}

type envelope struct {
	Report json.RawMessage `json:"report"`
}

// validate checks a response body of the expected status.
func (sr *serveRunner) validate(ctx context.Context, q *Req, body []byte, id, span int64, connWait *time.Duration) bool {
	switch q.Class {
	case "invalid":
		return true
	case "sweep":
		return sr.validateSweep(q, body)
	case "async":
		return sr.pollJob(ctx, q, body, id, span, connWait)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil || len(env.Report) == 0 {
		sr.chk.Fail("%s %s %s: no report in %d bytes %.200s", q.Class, q.Path, q.Body, len(body), body)
		return false
	}
	switch q.Class {
	case "scenario":
		var rep struct {
			Trials systolic.TrialStats `json:"trials"`
		}
		if err := json.Unmarshal(env.Report, &rep); err != nil || rep.Trials.Trials != serveTrials ||
			rep.Trials.Completed+rep.Trials.Truncated != serveTrials {
			sr.chk.Fail("scenario: trial stats %+v (%v)", rep.Trials, err)
			return false
		}
	case "scan":
		var rep systolic.BroadcastAllReport
		if err := json.Unmarshal(env.Report, &rep); err != nil || len(rep.Rounds) == 0 || rep.Worst < rep.Best || rep.Best < 1 {
			sr.chk.Fail("scan: bad report (%v)", err)
			return false
		}
	}
	if !q.Repeat {
		return true
	}
	h := sha256.Sum256(env.Report)
	key := q.Path + " " + q.Body
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if prev, ok := sr.hashes[key]; ok && prev != h {
		sr.chk.Fail("%s: report of a repeated key changed: %s", q.Class, key)
		return false
	}
	sr.hashes[key] = h
	return true
}

func (sr *serveRunner) validateSweep(q *Req, body []byte) bool {
	var req serve.SweepRequest
	if err := json.Unmarshal([]byte(q.Body), &req); err != nil {
		sr.chk.Fail("sweep: %v", err)
		return false
	}
	seen := make([]bool, len(req.Jobs))
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	lines := 0
	for sc.Scan() {
		var line struct {
			Index  int             `json:"index"`
			Report json.RawMessage `json:"report"`
			Error  string          `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Index < 0 || line.Index >= len(seen) ||
			seen[line.Index] || len(line.Report) == 0 || line.Error != "" {
			sr.chk.Fail("sweep: bad line %.200s", sc.Bytes())
			return false
		}
		seen[line.Index] = true
		lines++
	}
	return sr.chk.Check(lines == len(req.Jobs), "sweep: %d lines for %d jobs", lines, len(req.Jobs))
}

// pollJob polls an async job until it ends, backing off from 1 ms to 16 ms.
func (sr *serveRunner) pollJob(ctx context.Context, q *Req, body []byte, id, span int64, connWait *time.Duration) bool {
	var acc struct {
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(body, &acc); err != nil || acc.StatusURL == "" {
		sr.chk.Fail("async: bad accept body %.200s", body)
		return false
	}
	wait := time.Millisecond
	for {
		select {
		case <-ctx.Done():
			sr.chk.Fail("async: %v", ctx.Err())
			return false
		case <-time.After(wait):
		}
		status, b, err := sr.call(ctx, http.MethodGet, acc.StatusURL, "", id, span, connWait)
		if err != nil || status != http.StatusOK {
			sr.chk.Fail("async poll: status %d: %v", status, err)
			return false
		}
		var job serve.Job
		if err := json.Unmarshal(b, &job); err != nil {
			sr.chk.Fail("async poll: %v", err)
			return false
		}
		switch job.Status {
		case serve.JobDone:
			return sr.chk.Check(job.Report != nil, "async: job %s done without a report", job.ID)
		case serve.JobFailed, serve.JobIncomplete:
			sr.chk.Fail("async: job %s ended %s: %s", job.ID, job.Status, job.Error)
			return false
		}
		wait = min(2*wait, 16*time.Millisecond)
	}
}

// rungStats summarizes one rung.
type rungStats struct {
	rung                    *Rung
	sent, succeeded, failed int
	p50, p99, drain         time.Duration
	lateP99, connWaitP50    time.Duration
	cut                     bool    // sending stopped: the backlog ran away
	throughput              float64 // completions per second from the first send to the last completion
	ok                      bool
	results                 []reqResult
}

// runRung sends the rung's schedule open-loop: each request leaves at its
// due time whether or not earlier ones have finished, and its latency runs
// from the due time (or from its send, if the generator sent it early).
// A rung whose backlog passes four times what the latency limit allows is
// cut short: it has missed the limit, and a longer backlog would only
// inflate memory. The rung then waits for its stragglers.
func (sr *serveRunner) runRung(ctx context.Context, rg *Rung, tr *Tracer) rungStats {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]reqResult, len(rg.Reqs))
	maxBacklog := int64(max(64, 4*rg.Rate*serveLimit.Seconds()))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	st := rungStats{rung: rg}
	t0 := time.Now()
	for i := range rg.Reqs {
		if inflight.Load() > maxBacklog {
			st.cut = true
			break
		}
		due := t0.Add(time.Duration(rg.Reqs[i].At * float64(time.Second)))
		if d := time.Until(due) - serveEarly; d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		start := due
		if sent.Before(due) {
			start = sent
		}
		st.sent++
		inflight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = sr.do(ctx, &rg.Reqs[i], start, max(0, sent.Sub(due)), tr)
			inflight.Add(-1)
		}(i)
	}
	end := t0.Add(time.Duration(rg.Seconds * float64(time.Second)))
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(time.Until(end) + serveDrainCap):
		cancel() // stragglers fail; wait for them to unwind
		<-finished
	}
	results = results[:st.sent]
	st.results = results
	lat := latencies(results)
	var late, wait []float64
	last := end
	for _, r := range results {
		if r.ok {
			st.succeeded++
		} else {
			st.failed++
		}
		late = append(late, float64(r.late))
		wait = append(wait, float64(r.connWait))
		if r.done.After(last) {
			last = r.done
		}
	}
	st.p50 = time.Duration(quantile(lat, 0.5))
	st.p99 = time.Duration(quantile(lat, 0.99))
	st.drain = last.Sub(end)
	st.lateP99 = time.Duration(quantile(late, 0.99))
	st.connWaitP50 = time.Duration(quantile(wait, 0.5))
	if d := last.Sub(t0).Seconds(); d > 0 {
		st.throughput = float64(st.succeeded) / d
	}
	// The rung meets the limit when its windowed p99 does and its backlog
	// did not grow: the last window's median is within the limit too.
	st.ok = !st.cut && st.failed == 0 && st.windowP99() <= serveLimit && st.lastWindowP50() <= serveLimit
	return st
}

func (st rungStats) String() string {
	return fmt.Sprintf("rung %-14s %6.0f/s: sent %5d of %5d, ok %5d failed %3d, done %6.0f/s | p50 %7.2f ms p99 %8.2f ms | drain %7.2f ms late p99 %6.2f ms conn wait p50 %6.2f ms | meets limit %v",
		st.rung.Name, st.rung.Rate, st.sent, len(st.rung.Reqs), st.succeeded, st.failed, st.throughput, millis(st.p50), millis(st.p99),
		millis(st.drain), millis(st.lateP99), millis(st.connWaitP50), st.ok)
}

// serveWindows is how many consecutive windows of the nominal rung p99_ms
// takes the median over.
const serveWindows = 4

// windowP99 splits the rung's requests, in schedule order, into
// serveWindows windows (about a thousand requests each at the nominal
// rate) and returns the median of their p99 latencies: one burst of
// machine noise moves one window, not the figure.
func (st rungStats) windowP99() time.Duration {
	var p99s []float64
	for w := 0; w < serveWindows; w++ {
		p99s = append(p99s, quantile(st.window(w), 0.99))
	}
	return time.Duration(median(p99s))
}

// lastWindowP50 is the median latency of the rung's last window.
func (st rungStats) lastWindowP50() time.Duration {
	return time.Duration(median(st.window(serveWindows - 1)))
}

// window returns the latencies of the w-th of serveWindows consecutive
// windows of the rung; a failed request counts as +Inf, missing any limit.
func (st rungStats) window(w int) []float64 {
	n := len(st.results)
	return latencies(st.results[w*n/serveWindows : (w+1)*n/serveWindows])
}

func latencies(rs []reqResult) []float64 {
	lat := make([]float64, 0, len(rs))
	for _, r := range rs {
		if r.ok {
			lat = append(lat, float64(r.latency))
		} else {
			lat = append(lat, math.Inf(1))
		}
	}
	return lat
}

// classLines breaks the rung's client latency down by request class.
func (st rungStats) classLines() []string {
	byClass := map[string][]float64{}
	for _, r := range st.results {
		byClass[r.class] = append(byClass[r.class], millis(r.latency))
	}
	var lines []string
	for _, c := range serveClasses {
		xs := byClass[c]
		lines = append(lines, fmt.Sprintf("  %-14s %5d requests: p50 %7.2f ms p99 %7.2f ms max %7.2f ms",
			c, len(xs), quantile(xs, 0.5), quantile(xs, 0.99), quantile(xs, 1)))
	}
	return lines
}

func runServe(ctx context.Context, cfg Config, chk *Checker) (*Outcome, error) {
	plan := newServePlan(cfg.Seed, cfg.Seconds)
	dir, err := os.MkdirTemp(cfg.Workdir, "spool-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	hashes := map[string][32]byte{}
	var sr *serveRunner
	// Set-up starts a server and warms it: every hot key once, then one
	// all-source scan per scan network. Each set-up after the first
	// closes the previous server first, untimed.
	discard := func() {
		if sr != nil {
			sr.close()
			sr = nil
		}
	}
	setup, err := repeatSetup(serveSetupRepeats, discard, func() error {
		sub, err := os.MkdirTemp(dir, "run-")
		if err != nil {
			return err
		}
		if sr, err = startServer(sub, chk, hashes); err != nil {
			return err
		}
		for i := range plan.Warm {
			r := sr.do(ctx, &plan.Warm[i], time.Now(), 0, nil)
			if !r.ok {
				return errors.New("warm-up request failed")
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer sr.close()

	out := &Outcome{}
	var stats []rungStats
	maxOK, capacity, rss := 0.0, 0.0, 0.0
	for i, rg := range plan.Rungs {
		if cfg.Trace && i > 0 {
			break // traced runs measure the nominal rung, untraced and traced
		}
		st := sr.runRung(ctx, rg, nil)
		stats = append(stats, st)
		out.Extra = append(out.Extra, st.String())
		if i == 0 {
			// Set-up plus the nominal rung: the ladder's overload rung is a
			// stress phase, not the memory a user sees.
			rss = peakRSSMiB()
			continue
		}
		if st.ok {
			maxOK = rg.Rate
		}
		if st.cut {
			break // overloaded: every higher rung would be cut too
		}
	}
	if !cfg.Trace {
		capacity = sr.saturate(ctx, plan.Sat)
	}
	nominal := stats[0]
	out.Extra = append(out.Extra, nominal.classLines()...)
	var handler []float64
	for _, r := range nominal.results {
		handler = append(handler, millis(r.handler))
	}
	serverP50 := quantile(handler, 0.5)
	out.Extra = append(out.Extra,
		fmt.Sprintf("p50_ms %.3f ms in the server (handler), %.3f ms at the client from the due time | p99_ms %.3f ms at the client (median of %d windows; whole rung %.3f ms) at %g/s",
			serverP50, millis(nominal.p50), millis(nominal.windowP99()), serveWindows, millis(nominal.p99), serveNominalRate),
		fmt.Sprintf("max_ok_rps %g 1/s (p99 limit %v) | capacity %.1f 1/s (closed loop over %d connections) | peak_rss_mib %.1f MiB through the nominal rung",
			maxOK, serveLimit, capacity, serveConns, rss))
	out.EndToEnd = map[string]Metric{
		"setup_s":      {setup.Seconds(), "s"},
		"peak_rss_mib": {rss, "MiB"},
		"ops_per_s":    {capacity, "1/s"},
		"p50_ms":       {serverP50, "ms"},
	}
	if cfg.Trace {
		tr := newTracer()
		before := sr.srv.Metrics().Snapshot()
		sr.tr.Store(tr)
		st := sr.runRung(ctx, plan.Traced, tr)
		sr.tr.Store(nil)
		after := sr.srv.Metrics().Snapshot()
		out.Extra = append(out.Extra, st.String())
		out.Tracer = tr
		out.PerLayer = serveLayers(tr, nominal, st, before, after)
	}
	return out, nil
}

// saturate runs the closed-loop capacity phase: one client per connection
// sends the phase's requests back to back for its duration. It returns
// successful completions per second.
func (sr *serveRunner) saturate(ctx context.Context, rg *Rung) float64 {
	var next, done atomic.Int64
	deadline := time.Now().Add(time.Duration(rg.Seconds * float64(time.Second)))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(rg.Reqs) {
					return
				}
				if r := sr.do(ctx, &rg.Reqs[i], time.Now(), 0, nil); r.ok {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(t0).Seconds()
}

// serveLayers reduces the traced rung to per-layer metrics.
func serveLayers(tr *Tracer, untraced, traced rungStats, before, after serve.Snapshot) map[string]Metric {
	m := emptyLayers()
	handler := map[string][]float64{}
	var overhead, late, wait []float64
	var scenarioTime time.Duration
	for _, r := range traced.results {
		handler[r.class] = append(handler[r.class], millis(r.handler))
		if r.ok && r.class != "async" {
			overhead = append(overhead, millis(r.latency-r.handler))
		}
		if r.class == "scenario" {
			scenarioTime += r.handler
		}
		late = append(late, millis(r.late))
		wait = append(wait, millis(r.connWait))
	}
	for _, c := range serveClasses {
		m["serve.handler_ms."+c+".p50"] = Metric{quantile(handler[c], 0.5), "ms"}
		m["serve.handler_ms."+c+".p99"] = Metric{quantile(handler[c], 0.99), "ms"}
	}
	m["serve.client_overhead_ms"] = Metric{quantile(overhead, 0.5), "ms"}
	m["serve.conn_wait_ms"] = Metric{quantile(wait, 0.99), "ms"}
	m["serve.gen_late_ms"] = Metric{quantile(late, 0.99), "ms"}
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	phits, pmiss := after.ProgramHits-before.ProgramHits, after.ProgramMisses-before.ProgramMisses
	lhits, lmiss := after.PlanHits-before.PlanHits, after.PlanMisses-before.PlanMisses
	var reqs int64
	for k, v := range after.Requests {
		reqs += v - before.Requests[k]
	}
	m["serve.result_hit_ratio"] = Metric{ratio(hits, hits+misses), "ratio"}
	m["serve.program_hit_ratio"] = Metric{ratio(phits, phits+pmiss), "ratio"}
	m["serve.plan_hit_ratio"] = Metric{ratio(lhits, lhits+lmiss), "ratio"}
	m["serve.dedup_share"] = Metric{ratio(after.DedupShared-before.DedupShared, reqs), "ratio"}
	m["serve.rejected_share"] = Metric{ratio(after.Rejected-before.Rejected, reqs), "ratio"}
	if scenarioTime > 0 {
		m["scenario.trials_per_s"] = Metric{float64(after.ScenarioTrials-before.ScenarioTrials) / scenarioTime.Seconds(), "1/s"}
	}
	self, wall := LayerSelf(tr.Spans())
	sum := func(rs []reqResult) float64 {
		s := 0.0
		for _, r := range rs {
			s += r.latency.Seconds()
		}
		return s
	}
	addTraceShares(m, self, wall, sum(traced.results)/sum(untraced.results))
	return m
}
