package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"dynamollm/internal/core"
	"dynamollm/internal/scenario"
	"dynamollm/internal/workload"
)

func testHandler(t *testing.T, f core.Fidelity) (*Handler, *fakeClock) {
	t.Helper()
	s, clock := testSession(t, f, testTrace(10, 5), false, 60)
	t.Cleanup(func() { s.Close() })
	return NewHandler(s, 10*time.Second), clock
}

func do(h http.Handler, method, target, body string, header ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// badRequestBodies are /request payloads rejected before touching the
// simulation, with the status each must get: 400 for malformed JSON and
// out-of-range fields, 413 for a body past the size cap.
// FuzzDecodeRequest seeds from them.
var badRequestBodies = []struct {
	name, body string
	code       int
}{
	{"malformed", `{"input_tokens": 12`, http.StatusBadRequest},
	{"unknown field", `{"input_tokens":12,"output_tokens":9,"bogus":1}`, http.StatusBadRequest},
	{"zero input", `{"input_tokens":0,"output_tokens":9}`, http.StatusBadRequest},
	{"negative output", `{"input_tokens":12,"output_tokens":-3}`, http.StatusBadRequest},
	{"missing fields", `{}`, http.StatusBadRequest},
	{"input over cap", `{"input_tokens":100000,"output_tokens":9}`, http.StatusBadRequest},
	{"output over cap", `{"input_tokens":12,"output_tokens":1000000000}`, http.StatusBadRequest},
	{"negative deadline", `{"input_tokens":12,"output_tokens":9,"deadline_s":-1}`, http.StatusBadRequest},
	{"oversize body", `{"input_tokens":12,"output_tokens":9,"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`,
		http.StatusRequestEntityTooLarge},
}

// TestHTTPRequestValidation: every bad body is rejected with its status
// before touching the simulation.
func TestHTTPRequestValidation(t *testing.T) {
	h, _ := testHandler(t, core.FidelityFluid)
	for _, tc := range badRequestBodies {
		if w := do(h, "POST", "/request", tc.body); w.Code != tc.code {
			t.Errorf("%s: status %d, want %d (body %.200q)", tc.name, w.Code, tc.code, w.Body.String())
		}
	}
}

// FuzzDecodeRequest: any /request body either decodes or errors — never
// panics — and an accepted body carries token counts within the workload
// caps and a non-negative deadline.
func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range badRequestBodies {
		if len(tc.body) <= maxBodyBytes { // the cap is the handler's, not decodeRequest's
			f.Add([]byte(tc.body))
		}
	}
	for _, body := range []string{
		`{"input_tokens":512,"output_tokens":64}`,
		`{"input_tokens":128,"output_tokens":16}`,
		`{"input_tokens":128,"output_tokens":8,"deadline_s":0.5}`,
		`{"input_tokens":128,"output_tokens":8,"deadline_s":1e300}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := decodeRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if body.InputTokens < 1 || body.InputTokens > workload.InputLongMax ||
			body.OutputTokens < 1 || body.OutputTokens > workload.OutputLongMax {
			t.Fatalf("accepted out-of-range token counts: %+v", body)
		}
		if !(body.DeadlineS >= 0) {
			t.Fatalf("accepted deadline_s %v", body.DeadlineS)
		}
	})
}

// TestHTTPHugeDeadlineKeepsWaitTimeout: a deadline_s far past the
// server-wide wait timeout, too large for a time.Duration, leaves that
// timeout and its 504 in force; a deadline below it answers 408.
func TestHTTPHugeDeadlineKeepsWaitTimeout(t *testing.T) {
	s, _ := testSession(t, core.FidelityFluid, testTrace(10, 5), false, 60)
	t.Cleanup(func() { s.Close() })
	h := NewHandler(s, 50*time.Millisecond)
	// The fake clock never advances, so no request completes and every
	// wait ends on its timer.
	for _, tc := range []struct {
		deadline string
		code     int
	}{
		{"1e300", http.StatusGatewayTimeout},
		{"1e10", http.StatusGatewayTimeout},
		{"0", http.StatusGatewayTimeout},
		{"0.01", http.StatusRequestTimeout},
	} {
		body := `{"input_tokens":128,"output_tokens":8,"deadline_s":` + tc.deadline + `}`
		if w := do(h, "POST", "/request", body); w.Code != tc.code {
			t.Errorf("deadline_s %s: status %d, want %d (body %q)", tc.deadline, w.Code, tc.code, w.Body.String())
		}
	}
}

// TestHTTPConfig pins the /config document: system, fidelity, knobs.
func TestHTTPConfig(t *testing.T) {
	h, _ := testHandler(t, core.FidelityEvent)
	w := do(h, "GET", "/config", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var cfg ConfigInfo
	if err := json.Unmarshal(w.Body.Bytes(), &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.System != "singlepool" || cfg.Fidelity != "event" {
		t.Errorf("system/fidelity = %q/%q", cfg.System, cfg.Fidelity)
	}
	if cfg.Model != "llama2-70b" || cfg.Servers != 12 || cfg.NumPools != 1 {
		t.Errorf("defaults not resolved: %+v", cfg)
	}
	if cfg.Speed != 60 || cfg.TraceRequests != 10 {
		t.Errorf("speed/trace = %v/%d", cfg.Speed, cfg.TraceRequests)
	}
}

// TestHTTPInjectVisibleInStats: a fire-and-forget injection shows up in a
// subsequent /stats once its virtual arrival has been served.
func TestHTTPInjectVisibleInStats(t *testing.T) {
	h, clock := testHandler(t, core.FidelityFluid)
	clock.advance(10 * time.Second) // past the 10-entry base trace (50 virtual s)
	if w := do(h, "GET", "/stats", ""); w.Code != http.StatusOK {
		t.Fatalf("stats: %d", w.Code)
	}
	w := do(h, "POST", "/request?wait=0", `{"input_tokens":512,"output_tokens":64}`)
	if w.Code != http.StatusOK {
		t.Fatalf("inject: %d %s", w.Code, w.Body.String())
	}
	var acc struct {
		Tag   uint64  `json:"tag"`
		At    float64 `json:"accepted_at_virtual_s"`
		Class string  `json:"class"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Tag == 0 || acc.Class != "MS" || acc.At != 600 {
		t.Errorf("accepted = %+v, want tag>0 class MS at 600", acc)
	}

	clock.advance(time.Second)
	var st Stats
	if err := json.Unmarshal(do(h, "GET", "/stats", "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 11 { // 10 base + 1 injected
		t.Errorf("stats requests = %d, want 11", st.Requests)
	}
}

// TestHTTPBlockingCompletion: the default POST /request blocks until the
// request completes in virtual time and returns its TTFT/TBT.
func TestHTTPBlockingCompletion(t *testing.T) {
	s, clock := testSession(t, core.FidelityEvent, nil, false, 60)
	t.Cleanup(func() { s.Close() })
	h := NewHandler(s, 10*time.Second)
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Drive the fake clock while the request blocks.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				clock.advance(100 * time.Millisecond)
				s.Advance()
			}
		}
	}()

	resp, err := http.Post(srv.URL+"/request", "application/json",
		strings.NewReader(`{"input_tokens":128,"output_tokens":16}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var done Completion
	if err := json.NewDecoder(resp.Body).Decode(&done); err != nil {
		t.Fatal(err)
	}
	if done.Squashed || done.TTFT <= 0 || done.ClassName != "SS" {
		t.Errorf("completion %+v, want served SS with TTFT > 0", done)
	}
}

// TestHTTPSSE: with Accept: text/event-stream the handler streams
// accepted, per-token, and done events.
func TestHTTPSSE(t *testing.T) {
	s, clock := testSession(t, core.FidelityEvent, nil, false, 60)
	t.Cleanup(func() { s.Close() })
	h := NewHandler(s, 10*time.Second)
	srv := httptest.NewServer(h)
	defer srv.Close()

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				clock.advance(100 * time.Millisecond)
				s.Advance()
			}
		}
	}()

	req, _ := http.NewRequest("POST", srv.URL+"/request",
		strings.NewReader(`{"input_tokens":128,"output_tokens":8}`))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	counts := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			counts[strings.TrimPrefix(line, "event: ")]++
			if line == "event: done" {
				break
			}
		}
	}
	if counts["accepted"] != 1 || counts["done"] != 1 {
		t.Errorf("event counts %v, want one accepted and one done", counts)
	}
	if counts["token"] == 0 {
		t.Errorf("no token events streamed under event fidelity (counts %v)", counts)
	}
}

// TestHTTPMetrics: the Prometheus exposition carries the headline
// counters and, under event fidelity, per-class TTFT/TBT percentiles.
func TestHTTPMetrics(t *testing.T) {
	h, clock := testHandler(t, core.FidelityEvent)
	clock.advance(10 * time.Second) // serve the whole base trace
	w := do(h, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"dynamollm_requests_total 10",
		"dynamollm_virtual_seconds 600",
		`dynamollm_ttft_seconds{quantile="0.99"}`,
		`dynamollm_class_ttft_seconds{class="SS",quantile="0.99"}`,
		`dynamollm_class_tbt_seconds{class="SS",quantile="0.5"}`,
		"dynamollm_energy_joules_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestStatsWireFormat pins the /stats document's keys and their order:
// the KV block embeds core.KVStats, and moving or retagging it must not
// reshuffle the wire format. A zero Stats emits the 43 always-present
// keys; the two omitempty restore/checkpoint keys follow them when set.
func TestStatsWireFormat(t *testing.T) {
	want := []string{
		"virtual_seconds", "fidelity", "requests", "squashed", "completed",
		"inflight", "retried", "retry_success", "shed", "admission_shed",
		"energy_kwh", "energy_cost_usd", "avg_servers", "active_servers",
		"slo_attainment", "ttft_p50_s", "ttft_p99_s", "tbt_p50_s", "tbt_p99_s",
		"reshards", "scale_outs", "scale_ins", "emergencies", "outages",
		"recoveries", "price_mult", "slo_factor", "trace_loops",
		"horizon_reached", "sim_lag_virtual_s", "pending_arrivals",
		"kv_used_blocks", "kv_total_blocks", "kv_preemptions",
		"kv_prefix_hits", "kv_rejected", "kv_handoffs",
		"kv_tier_used_blocks", "kv_tier_total_blocks", "kv_swap_outs",
		"kv_swap_ins", "kv_recomputes", "kv_tier_evictions",
	}
	restored := append(want[:len(want):len(want)], "restored_at_virtual_s", "last_checkpoint_virtual_s")
	for _, c := range []struct {
		st   Stats
		want []string
	}{
		{Stats{}, want},
		{Stats{RestoredAtS: 1, LastCheckpointS: 2}, restored},
	} {
		data, err := json.Marshal(c.st)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(strings.NewReader(string(data)))
		var got []string
		if _, err := dec.Token(); err != nil { // opening brace
			t.Fatal(err)
		}
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, key.(string))
			if _, err := dec.Token(); err != nil { // scalar value
				t.Fatal(err)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%d keys:\n got %v\nwant %v", len(got), got, c.want)
		}
	}
}

// eventBodies are /events payloads with the status each must get: both
// accepted forms, then rejections (trace kinds and malformed payloads get
// 400, a body past the size cap 413). FuzzDecodeEvents seeds from them.
var eventBodies = []struct {
	name, body string
	code       int
}{
	{"single object", `{"kind":"outage","servers":2}`, http.StatusOK},
	{"array", `[{"kind":"price","price_mult":4,"duration_hours":1}]`, http.StatusOK},
	{"trace-level kind", `{"kind":"spike","rate_mult":3,"duration_hours":1}`, http.StatusBadRequest},
	{"unknown kind", `{"kind":"meteor"}`, http.StatusBadRequest},
	{"missing servers", `{"kind":"outage"}`, http.StatusBadRequest},
	{"malformed", `{"kind":`, http.StatusBadRequest},
	{"unknown field", `{"kind":"outage","servers":1,"bogus":true}`, http.StatusBadRequest},
	{"empty array", `[]`, http.StatusBadRequest},
	{"oversize body", `{"kind":"outage","servers":1,"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`,
		http.StatusRequestEntityTooLarge},
}

// TestHTTPEvents: live scenario events are validated and applied; invalid
// payloads are rejected whole.
func TestHTTPEvents(t *testing.T) {
	h, clock := testHandler(t, core.FidelityFluid)
	clock.advance(time.Second)
	for _, tc := range eventBodies {
		if w := do(h, "POST", "/events", tc.body); w.Code != tc.code {
			t.Errorf("%s: status %d, want %d (body %.200q)", tc.name, w.Code, tc.code, w.Body.String())
		}
	}
	clock.advance(time.Second)
	var st Stats
	if err := json.Unmarshal(do(h, "GET", "/stats", "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Outages < 2 || st.PriceMult != 4 {
		t.Errorf("events not applied: outages %d price %v", st.Outages, st.PriceMult)
	}
}

// FuzzDecodeEvents: any /events body either decodes or errors — never
// panics. Whatever decodes and passes the live validation is runtime
// kinds only and schedules into a fresh agenda after fault expansion,
// exactly as InjectEvents does.
func FuzzDecodeEvents(f *testing.F) {
	for _, tc := range eventBodies {
		if len(tc.body) <= maxBodyBytes { // the cap is the handler's, not decodeEvents'
			f.Add([]byte(tc.body))
		}
	}
	f.Add([]byte(`[{"kind":"faults","duration_hours":2,"mtbf_hours":0.5,"repair_hours":0.25},` +
		`{"kind":"blip","at_hours":1,"duration_hours":1,"delay_seconds":2}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := decodeEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(events) == 0 {
			t.Fatal("decoded no events without an error")
		}
		if validateLive(events) != nil {
			return
		}
		for _, e := range events {
			if !e.Kind.Runtime() {
				t.Fatalf("accepted non-runtime kind %q", e.Kind)
			}
		}
		scenario.NewAgenda().Add(scenario.ExpandTimeline(events, 0, 1), 0)
	})
}
