// Coverage for the scenario block of POST /v1/certify: sync and async
// serving, cache-key separation from plain certifications, the truncation
// contract (budget-exhausted trials finish the async job with per-trial
// counts instead of failing it), trial counters on /metrics, and the
// /healthz version string.
package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/systolic"
)

func scenarioCertifyDB24(trials int, sc systolic.Scenario) AnalyzeRequest {
	return AnalyzeRequest{
		Kind:     "debruijn",
		Params:   map[string]int{"degree": 2, "diameter": 4},
		Protocol: "periodic-half",
		Scenario: &ScenarioRequest{Scenario: sc, Trials: trials},
	}
}

func TestCertifyScenarioSync(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := scenarioCertifyDB24(16, systolic.Scenario{Loss: 0.1, Seed: 7})

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/certify", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	env := decodeBody[resultEnvelope](t, resp)
	if env.Cached {
		t.Fatal("first scenario certification claims cached")
	}
	if !strings.Contains(env.Key, "|scenario{") || !strings.Contains(env.Key, "trials=16") {
		t.Fatalf("scenario key missing fault model: %s", env.Key)
	}
	raw, _ := json.Marshal(env.Report)
	var cert systolic.StatisticalCertificate
	if err := json.Unmarshal(raw, &cert); err != nil {
		t.Fatal(err)
	}
	if cert.Trials.Trials != 16 || cert.Trials.Completed != 16 {
		t.Fatalf("trials %+v, want 16 completed", cert.Trials)
	}
	if !cert.BoundRespected {
		t.Fatalf("median %d below bound %d", cert.Trials.P50, cert.LowerBound.Rounds)
	}
	if cert.Deterministic == nil || !cert.Deterministic.Complete {
		t.Fatal("missing deterministic baseline")
	}

	// The identical request replays from the cache, fingerprint included.
	resp2 := postJSON(t, ts.Client(), ts.URL+"/v1/certify", req)
	env2 := decodeBody[resultEnvelope](t, resp2)
	if !env2.Cached {
		t.Fatal("identical scenario request missed the cache")
	}
	raw2, _ := json.Marshal(env2.Report)
	var cert2 systolic.StatisticalCertificate
	if err := json.Unmarshal(raw2, &cert2); err != nil {
		t.Fatal(err)
	}
	if cert2.Trials.DistributionFP != cert.Trials.DistributionFP {
		t.Fatal("cached replay changed the distribution fingerprint")
	}

	snap := s.Metrics().Snapshot()
	if snap.ScenarioTrials != 16 {
		t.Fatalf("scenario trial counter %d, want 16", snap.ScenarioTrials)
	}
	if snap.ScenarioTruncated != 0 {
		t.Fatalf("scenario truncation counter %d, want 0", snap.ScenarioTruncated)
	}
}

// TestCertifyScenarioKeySeparation: the same topology and protocol under a
// plain certify, a scenario certify, and a different seed are three
// distinct cache entries.
func TestCertifyScenarioKeySeparation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	plain := AnalyzeRequest{
		Kind:     "debruijn",
		Params:   map[string]int{"degree": 2, "diameter": 4},
		Protocol: "periodic-half",
	}
	keys := map[string]bool{}
	for _, req := range []AnalyzeRequest{
		plain,
		scenarioCertifyDB24(8, systolic.Scenario{Loss: 0.1, Seed: 1}),
		scenarioCertifyDB24(8, systolic.Scenario{Loss: 0.1, Seed: 2}),
		scenarioCertifyDB24(4, systolic.Scenario{Loss: 0.1, Seed: 1}),
	} {
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/certify", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		env := decodeBody[resultEnvelope](t, resp)
		if env.Cached {
			t.Fatalf("distinct request hit the cache under key %s", env.Key)
		}
		if keys[env.Key] {
			t.Fatalf("key collision: %s", env.Key)
		}
		keys[env.Key] = true
	}
}

// TestCertifyScenarioAsyncTruncation pins the satellite contract: an async
// scenario job whose trials all exhaust a tiny round budget finishes
// JobDone with the truncation counts in the result — not JobFailed.
func TestCertifyScenarioAsyncTruncation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := scenarioCertifyDB24(8, systolic.Scenario{Loss: 0.1, Seed: 3})
	req.Budget = 2

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/certify?async=true", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	acc := decodeBody[map[string]string](t, resp)

	var job Job
	waitFor(t, 10*time.Second, "async scenario job", func() bool {
		r, err := ts.Client().Get(ts.URL + acc["status_url"])
		if err != nil {
			return false
		}
		job = decodeBody[Job](t, r)
		return job.Status == JobDone || job.Status == JobFailed || job.Status == JobIncomplete
	})
	if job.Status != JobDone {
		t.Fatalf("truncated scenario job finished %s (%s), want %s", job.Status, job.Error, JobDone)
	}
	raw, _ := json.Marshal(job.Report)
	var cert systolic.StatisticalCertificate
	if err := json.Unmarshal(raw, &cert); err != nil {
		t.Fatal(err)
	}
	if cert.Trials.Truncated != 8 || cert.Trials.Completed != 0 {
		t.Fatalf("job result trials %+v, want 8 truncated", cert.Trials)
	}
	if snap := s.Metrics().Snapshot(); snap.ScenarioTruncated != 8 {
		t.Fatalf("scenario truncation counter %d, want 8", snap.ScenarioTruncated)
	}
}

// TestScenarioRejectedOutsideCertify: analyze and broadcast refuse
// scenario blocks; malformed scenarios are 400s.
func TestScenarioRejectedOutsideCertify(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	withScenario := analyzeDB25
	withScenario.Scenario = &ScenarioRequest{Scenario: systolic.Scenario{Loss: 0.1}}
	for _, ep := range []string{"/v1/analyze", "/v1/broadcast"} {
		resp := postJSON(t, ts.Client(), ts.URL+ep, withScenario)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with scenario: status %d, want 400", ep, resp.StatusCode)
		}
	}
	for name, sc := range map[string]*ScenarioRequest{
		"bad-loss":        {Scenario: systolic.Scenario{Loss: 1.5}},
		"negative-trials": {Trials: -1},
		"too-many-trials": {Trials: systolic.MaxScenarioTrials + 1},
	} {
		req := analyzeDB25
		req.Scenario = sc
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/certify", req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// A crash node outside the network fails at compute time with 400 too.
	bad := scenarioCertifyDB24(4, systolic.Scenario{Crashes: []systolic.CrashWindow{{Node: 9999, From: 0, To: 4}}})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/certify", bad)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range crash node: status %d, want 400", resp.StatusCode)
	}
}

// TestHealthzVersion: /healthz reports the configured version string and
// the default "dev" when none is set.
func TestHealthzVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{Version: "v1.2.3-test"})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := decodeBody[map[string]any](t, resp)
	if body["version"] != "v1.2.3-test" {
		t.Fatalf("version %v, want v1.2.3-test", body["version"])
	}
	if _, ok := body["uptime_seconds"].(float64); !ok {
		t.Fatalf("uptime_seconds missing or not a number: %v", body["uptime_seconds"])
	}

	_, ts2 := newTestServer(t, Config{})
	resp2, err := ts2.Client().Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body2 := decodeBody[map[string]any](t, resp2); body2["version"] != "dev" {
		t.Fatalf("default version %v, want dev", body2["version"])
	}
}

// TestMetricsScenarioLines: the Prometheus rendering carries the scenario
// trial counters.
func TestMetricsScenarioLines(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/certify", scenarioCertifyDB24(4, systolic.Scenario{Loss: 0.05, Seed: 1}))
	resp.Body.Close()
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	data, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, "gossipd_scenario_trials_total 4") {
		t.Fatalf("metrics missing scenario trial counter:\n%s", text)
	}
	if !strings.Contains(text, "gossipd_scenario_trials_truncated_total 0") {
		t.Fatalf("metrics missing scenario truncation counter:\n%s", text)
	}
}

// TestCertifyScenarioBroadcastProgram400: a scenario certification of a
// generator-backed protocol on an implicit network is a client error,
// answered 400 before any delay-plan work, and the server keeps serving.
func TestCertifyScenarioBroadcastProgram400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := AnalyzeRequest{
		Kind:     "hypercube",
		Params:   map[string]int{"dimension": 20},
		Protocol: "hypercube",
		Scenario: &ScenarioRequest{Scenario: systolic.Scenario{Loss: 0.05, Seed: 1}, Trials: 4},
	}
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/certify", req)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("implicit hypercube scenario: status %d (%s), want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "materialized network") {
		t.Errorf("error body does not name the implicit network: %s", body)
	}
	ok := postJSON(t, ts.Client(), ts.URL+"/v1/certify", scenarioCertifyDB24(4, systolic.Scenario{Loss: 0.05, Seed: 1}))
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("valid scenario after the rejected one: status %d", ok.StatusCode)
	}
}
