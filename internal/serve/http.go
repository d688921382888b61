//dynamolint:wallclock request timeouts are measured against the caller's real clock, not virtual time

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dynamollm/internal/scenario"
	"dynamollm/internal/workload"
)

// DefaultWaitTimeout bounds how long a blocking or streaming /request
// handler waits for its completion before answering 504. It exists as a
// backstop against requests the simulation can only resolve in aggregate
// (a fluid-mode backlog squash has no per-request identity).
const DefaultWaitTimeout = 2 * time.Minute

// maxBodyBytes caps a /request or /events body; a larger one is answered
// 413 without being buffered past the cap.
const maxBodyBytes = 1 << 20

// Handler is the control-plane HTTP API over one session.
type Handler struct {
	s           *Session
	mux         *http.ServeMux
	waitTimeout time.Duration
}

// NewHandler builds the HTTP API:
//
//	GET  /stats    running cluster summary (JSON)
//	GET  /config   the active configuration (JSON)
//	GET  /metrics  Prometheus text exposition
//	POST /request  inject one request; blocks for its completion
//	               (?wait=0 returns on acceptance; Accept:
//	               text/event-stream streams token events as SSE)
//	POST /events   inject scenario runtime events relative to now
//
// waitTimeout <= 0 takes DefaultWaitTimeout.
func NewHandler(s *Session, waitTimeout time.Duration) *Handler {
	if waitTimeout <= 0 {
		waitTimeout = DefaultWaitTimeout
	}
	h := &Handler{s: s, mux: http.NewServeMux(), waitTimeout: waitTimeout}
	h.mux.HandleFunc("GET /stats", h.handleStats)
	h.mux.HandleFunc("GET /config", h.handleConfig)
	h.mux.HandleFunc("GET /metrics", h.handleMetrics)
	h.mux.HandleFunc("POST /request", h.handleRequest)
	h.mux.HandleFunc("POST /events", h.handleEvents)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, h.s.Stats())
}

func (h *Handler) handleConfig(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, h.s.Config())
}

func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.s.WriteMetrics(w)
}

// requestBody is the /request payload. DeadlineS, when positive, bounds
// how many wall seconds this request may wait for its completion before
// the handler answers 408 — a per-request deadline tighter than the
// server-wide wait timeout (which stays the backstop).
type requestBody struct {
	InputTokens  int     `json:"input_tokens"`
	OutputTokens int     `json:"output_tokens"`
	DeadlineS    float64 `json:"deadline_s"`
}

// decodeRequest decodes and range-checks one /request body: token counts
// within the workload caps and a non-negative deadline.
func decodeRequest(r io.Reader) (requestBody, error) {
	var body requestBody
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		return body, err
	}
	if body.InputTokens <= 0 || body.InputTokens > workload.InputLongMax ||
		body.OutputTokens <= 0 || body.OutputTokens > workload.OutputLongMax {
		return body, fmt.Errorf("input_tokens must be in [1, %d] and output_tokens in [1, %d]",
			workload.InputLongMax, workload.OutputLongMax)
	}
	if body.DeadlineS < 0 {
		return body, errors.New("deadline_s must be >= 0")
	}
	return body, nil
}

func (h *Handler) handleRequest(w http.ResponseWriter, r *http.Request) {
	body, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, err.Error(), badBodyStatus(err))
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	wait := r.URL.Query().Get("wait") != "0" || sse

	acc, waiter, err := h.s.Inject(body.InputTokens, body.OutputTokens, wait)
	var overload *OverloadError
	if errors.As(err, &overload) {
		secs := int(overload.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	// A per-request deadline tightens the wait and turns its expiry into
	// 408 (the client's budget ran out) instead of the 504 backstop.
	// Compare in float before converting: a deadline_s past ~9.2e9 would
	// overflow the int64 nanosecond conversion, whose result Go leaves
	// implementation-defined.
	timeout, timeoutCode := h.waitTimeout, http.StatusGatewayTimeout
	if ns := body.DeadlineS * float64(time.Second); ns >= 1 && ns < float64(timeout) {
		timeout, timeoutCode = time.Duration(ns), http.StatusRequestTimeout
	}
	accepted := map[string]interface{}{
		"tag":                   acc.Tag,
		"accepted_at_virtual_s": float64(acc.At),
		"class":                 acc.Class.String(),
	}
	if !wait {
		writeJSON(w, accepted)
		return
	}
	if sse {
		h.streamSSE(w, r, acc, accepted, waiter, timeout)
		return
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case done := <-waiter.Done:
		writeJSON(w, done)
	case <-r.Context().Done():
		h.s.Abandon(acc.Tag)
	case <-timer.C:
		h.s.Abandon(acc.Tag)
		if timeoutCode == http.StatusRequestTimeout {
			http.Error(w, "deadline_s exceeded waiting for completion", timeoutCode)
		} else {
			http.Error(w, "timeout waiting for completion", timeoutCode)
		}
	}
}

// streamSSE emits the request lifecycle as server-sent events: one
// "accepted" event, a best-effort "token" event per produced output token
// (event fidelity only; `produced` restarts if the request migrates —
// see TokenEvent), and a final "done" event with the completion.
func (h *Handler) streamSSE(w http.ResponseWriter, r *http.Request, acc Accepted, accepted map[string]interface{}, waiter *Waiter, timeout time.Duration) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	emit := func(event string, v interface{}) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit("accepted", accepted)

	tag := acc.Tag
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case tok, ok := <-waiter.Tokens:
			if ok {
				emit("token", tok)
			} else {
				// Channel closed: the completion is (or is about to be)
				// buffered in Done.
				waiter.Tokens = nil
			}
		case done := <-waiter.Done:
			// Tokens is closed before Done is delivered: drain whatever
			// token events are still buffered so none are lost.
			if waiter.Tokens != nil {
				for tok := range waiter.Tokens {
					emit("token", tok)
				}
			}
			emit("done", done)
			return
		case <-r.Context().Done():
			h.s.Abandon(tag)
			return
		case <-timer.C:
			h.s.Abandon(tag)
			emit("timeout", map[string]interface{}{"tag": tag})
			return
		}
	}
}

func (h *Handler) handleEvents(w http.ResponseWriter, r *http.Request) {
	events, err := decodeEvents(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, err.Error(), badBodyStatus(err))
		return
	}
	at, err := h.s.InjectEvents(events)
	if errors.Is(err, ErrClosed) || errors.Is(err, errWALAppend) {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]interface{}{
		"accepted":         len(events),
		"anchor_virtual_s": float64(at),
	})
}

// decodeEvents accepts either one scenario event object or an array of
// them.
func decodeEvents(r io.Reader) ([]scenario.Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '[' {
		var events []scenario.Event
		if err := strictUnmarshal(data, &events); err != nil {
			return nil, err
		}
		if len(events) == 0 {
			return nil, fmt.Errorf("empty event list")
		}
		return events, nil
	}
	var e scenario.Event
	if err := strictUnmarshal(data, &e); err != nil {
		return nil, err
	}
	return []scenario.Event{e}, nil
}

func strictUnmarshal(data []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// badBodyStatus maps a body decode error to its status: 413 when the body
// ran past maxBodyBytes, 400 otherwise.
func badBodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	// An encode error means the client went away mid-write; nothing to do.
	_ = json.NewEncoder(w).Encode(v)
}
