//dynamolint:wallclock the session pacer deliberately tracks the wall clock to pace virtual time

// Package serve is the live serving control plane (§IV-E made long-lived):
// a Session wraps the cluster simulation in an incrementally advanced,
// wall-clock-paced loop — virtual time tracks the wall clock at a fixed
// speed, arrivals are injected at their true virtual instants, and every
// query advances the simulation only by the elapsed delta, never by
// re-simulating history. On top of the Session, NewHandler exposes the
// HTTP API cmd/dynamoserve serves: request injection with per-request
// completions (optionally streamed as SSE token events), live scenario
// runtime events, JSON stats, and Prometheus metrics.
package serve

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"dynamollm/internal/core"
	"dynamollm/internal/profile"
	"dynamollm/internal/scenario"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// checkpointEvery is the wall interval between durable checkpoints when
// Config.StateDir is set.
const checkpointEvery = 2 * time.Second

// Config parameterizes a live session.
type Config struct {
	// Name labels the configuration (/config, log lines); typically the
	// core system preset name.
	Name string
	// Opts is the control system under test; Fidelity selects the
	// instance backend (the live server defaults to event fidelity
	// upstream, in cmd/dynamoserve). The session owns Opts.Hook and
	// Opts.Observer: it installs its own runtime-event agenda and request
	// observer, replacing any value set here.
	Opts core.Options
	// Trace is the time-ordered base arrival trace (t = 0 is session
	// start in virtual time). The session reads it in place and never
	// writes it, so the caller must not modify it while the session runs.
	Trace trace.Trace
	// Speed is virtual seconds per wall second (default 60).
	Speed float64
	// Loop replays the base trace each time its horizon is reached, so
	// background load never runs dry (core.NewLoopingLive). When false
	// the session reports horizon_reached instead and keeps serving
	// injected traffic only.
	Loop bool
	// Repo caches model profiles (nil builds a private one).
	Repo *profile.Repository
	// WallClock is the time source (nil = time.Now); tests inject a fake.
	WallClock func() time.Time
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...interface{})

	// MaxInflight sheds new injections (OverloadError, HTTP 429) once
	// this many injected requests are already waiting (0 = unlimited).
	MaxInflight int
	// MaxLagSeconds sheds new injections while the simulation is more
	// than this many virtual seconds behind the pacer — the host cannot
	// keep up, and admitting more work only deepens the hole
	// (0 = unlimited).
	MaxLagSeconds float64
	// DrainLimit bounds the virtual time Close simulates past the final
	// pacer instant to serve stragglers; anything still unfinished then
	// resolves as squashed (0 = unlimited: drain everything accepted).
	DrainLimit float64

	// StateDir enables crash durability: every accepted injection is
	// appended (and synced) to <StateDir>/wal.jsonl before it is acked,
	// and a checkpoint of the session's progress is written to
	// <StateDir>/checkpoint.json every 2 wall seconds. Restore rebuilds a
	// killed session from the pair — no acked request is lost. Empty
	// disables durability.
	StateDir string
	// Meta is opaque caller metadata stored in the checkpoint file —
	// cmd/dynamoserve keeps the flags it needs to rebuild an identical
	// session (peak rate) there.
	Meta map[string]string
}

// ErrClosed reports an injection into a session that has begun shutting
// down — a transient condition (503), not a bad request.
var ErrClosed = errors.New("serve: session closed")

// errWALAppend marks an /events post refused because it could not be
// made durable: a server fault, not a bad request.
var errWALAppend = errors.New("serve: wal append")

// OverloadError reports an injection shed by admission control: the
// session is over its inflight cap or the simulation has fallen too far
// behind the wall clock. Clients should back off and retry after
// RetryAfter (HTTP maps it to 429 + Retry-After).
type OverloadError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded (%s), retry after %s", e.Reason, e.RetryAfter)
}

// TokenEvent is one streamed output token of an injected request.
// Produced normally counts 1..OutputTokens, but restarts from 1 if the
// serving instance is re-sharded or retired mid-flight: drained work
// re-generates on the new placement (that is the simulated reality), so
// clients must treat Produced as latest progress, not a cumulative count.
type TokenEvent struct {
	Produced int           `json:"produced"` // tokens produced so far (1-based)
	At       simclock.Time `json:"at_virtual_s"`
}

// Completion is the terminal state of an injected request.
type Completion struct {
	Tag        uint64         `json:"tag"`
	Class      workload.Class `json:"-"`
	ClassName  string         `json:"class"`
	AcceptedAt simclock.Time  `json:"accepted_at_virtual_s"`
	FinishedAt simclock.Time  `json:"finished_at_virtual_s"`
	TTFT       float64        `json:"ttft_s"`
	TBT        float64        `json:"tbt_s"`
	SLOMet     bool           `json:"slo_met"`
	Squashed   bool           `json:"squashed"`
}

// Accepted identifies an injected request.
type Accepted struct {
	Tag   uint64
	At    simclock.Time
	Class workload.Class
}

// Waiter delivers one injected request's lifecycle to its client. Tokens
// is best-effort (token events are dropped rather than ever stalling the
// simulation behind a slow reader); Done always delivers exactly one
// Completion and is buffered, so an abandoned waiter leaks nothing.
type Waiter struct {
	Tokens <-chan TokenEvent
	Done   <-chan Completion

	tokens chan TokenEvent
	done   chan Completion
}

// Session is a live, wall-clock-paced simulation. All state is guarded by
// mu; observer callbacks fire inside advances (under mu) and resolve
// waiters without re-entering the simulation.
type Session struct {
	mu     sync.Mutex
	cfg    Config
	live   *core.Live
	agenda *scenario.Agenda
	pacer  *simclock.Pacer
	logf   func(string, ...interface{})

	horizonReached bool

	nextTag        uint64
	waiters        map[uint64]*Waiter
	inflight       int
	lastInjectedAt simclock.Time

	// shed counts injections rejected by admission control.
	shed int
	// eventsPosted salts the fault-expansion seed per /events call.
	eventsPosted uint64

	// Durability (nil/zero when Config.StateDir is empty).
	wal        *walFile
	lastCkptAt simclock.Time
	restoredAt simclock.Time

	closed    bool
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds a session and anchors its pacer at the current wall instant.
// Call Start to run the background pacer, or drive it manually with
// Advance (tests do).
func New(cfg Config) *Session {
	if cfg.Speed <= 0 {
		cfg.Speed = 60
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	s := &Session{
		cfg:     cfg,
		agenda:  scenario.NewAgenda(),
		logf:    logf,
		waiters: map[uint64]*Waiter{},
		stop:    make(chan struct{}),
	}
	opts := cfg.Opts
	opts.Hook = s.agenda
	opts.Observer = (*sessionObserver)(s)
	newLive := core.NewLive
	if cfg.Loop {
		newLive = core.NewLoopingLive
	}
	s.live = newLive(cfg.Trace, opts, cfg.Repo)
	s.pacer = simclock.NewPacer(cfg.Speed, cfg.WallClock)
	return s
}

// Start launches the background pacer goroutine, which keeps the
// simulation caught up with the wall clock so completions are delivered
// even while no client is querying. The pacing interval is half a tick of
// wall time, clamped to sane bounds.
func (s *Session) Start() {
	interval := s.pacer.Wall(s.live.TickSeconds() / 2)
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > 250*time.Millisecond {
		interval = 250 * time.Millisecond
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.Advance()
			}
		}
	}()
	if s.wal != nil {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(checkpointEvery)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					s.mu.Lock()
					if !s.closed {
						if err := s.checkpointLocked(); err != nil {
							s.logf("serve: checkpoint: %v", err)
						}
					}
					s.mu.Unlock()
				}
			}
		}()
	}
}

// Advance brings the simulation up to the current virtual time and
// returns the number of ticks executed. Cost is proportional to the wall
// time elapsed since the previous advance.
func (s *Session) Advance() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advanceLocked()
}

func (s *Session) advanceLocked() int {
	if s.closed {
		return 0
	}
	target := s.pacer.Now()
	// Without Loop, flag (once) that the base trace has run out.
	if end := s.cfg.Trace.End(); !s.cfg.Loop && !s.horizonReached && end > 0 && target > end {
		s.horizonReached = true
		s.logf("serve: base trace horizon (%.0f virtual s) reached; serving injected traffic only", float64(end))
	}
	return s.live.AdvanceTo(target)
}

// Inject enqueues one live request at the current virtual instant — the
// virtual clock is read at receipt, after catching the simulation up, so
// the arrival stamp can never be stale. Token counts are bounded by the
// Table IV maxima (a larger output would make the drain-on-shutdown
// contract unmeetable: the engines must produce every token in virtual
// time). With wait set, the returned Waiter delivers the request's token
// events and completion.
func (s *Session) Inject(inTokens, outTokens int, wait bool) (Accepted, *Waiter, error) {
	if inTokens <= 0 || inTokens > workload.InputLongMax {
		return Accepted{}, nil, fmt.Errorf("serve: input_tokens must be in [1, %d]", workload.InputLongMax)
	}
	if outTokens <= 0 || outTokens > workload.OutputLongMax {
		return Accepted{}, nil, fmt.Errorf("serve: output_tokens must be in [1, %d]", workload.OutputLongMax)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Accepted{}, nil, ErrClosed
	}
	// Admission control, checked before paying the catch-up: a session
	// that has fallen behind the wall clock sheds load instead of
	// advancing (the advance is exactly the work it cannot afford), and a
	// full waiter table sheds rather than queueing unboundedly.
	if m := s.cfg.MaxLagSeconds; m > 0 {
		if lag := float64(s.pacer.Now() - s.live.Boundary()); lag > m {
			s.shed++
			retry := s.pacer.Wall(simclock.Duration(lag-m)) + time.Second
			return Accepted{}, nil, &OverloadError{Reason: "simulation lag", RetryAfter: retry}
		}
	}
	if m := s.cfg.MaxInflight; m > 0 && s.inflight >= m {
		s.shed++
		retry := s.pacer.Wall(simclock.Duration(s.live.TickSeconds())) + time.Second
		return Accepted{}, nil, &OverloadError{Reason: "inflight cap", RetryAfter: retry}
	}
	s.advanceLocked()
	s.nextTag++
	tag := s.nextTag
	entry := trace.Entry{
		At:           s.pacer.Now(),
		Tag:          tag,
		InputTokens:  inTokens,
		OutputTokens: outTokens,
	}
	// Durability: the request must be on disk before it is acked — an ack
	// is a promise the request survives a crash of this process.
	if s.wal != nil {
		if err := s.wal.append(entry); err != nil {
			s.nextTag--
			return Accepted{}, nil, fmt.Errorf("serve: wal append: %w", err)
		}
	}
	at, err := s.live.Inject(entry)
	if err != nil {
		return Accepted{}, nil, err
	}
	if at > s.lastInjectedAt {
		s.lastInjectedAt = at
	}
	acc := Accepted{Tag: tag, At: at, Class: workload.Classify(inTokens, outTokens)}
	var w *Waiter
	if wait {
		w = &Waiter{
			tokens: make(chan TokenEvent, 64),
			done:   make(chan Completion, 1),
		}
		w.Tokens, w.Done = w.tokens, w.done
		s.waiters[tag] = w
		s.inflight++
	}
	return acc, w, nil
}

// Abandon deregisters a waiter whose client has gone away (timeout,
// disconnect). Safe to call after the completion was already delivered.
func (s *Session) Abandon(tag uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.waiters[tag]; ok {
		delete(s.waiters, tag)
		s.inflight--
	}
}

// InjectEvents schedules scenario runtime events relative to the current
// virtual time (an event's AtHours is "hours from now"). Only runtime
// kinds are accepted, and a call is validated whole before anything is
// scheduled. Stochastic faults events are expanded into concrete crashes
// and repairs, each call drawing from a fresh seed stream so repeated
// identical posts yield different (but logged) instants; then every event
// joins the session's agenda, the same scenario.Agenda a batch scenario
// run installs. Windows posted in separate calls therefore compose exactly
// like windows within one scenario: the most recently started open
// window wins, and a window ending never clobbers another still running.
// Returns the virtual time the timeline is anchored at.
func (s *Session) InjectEvents(events []scenario.Event) (simclock.Time, error) {
	if err := validateLive(events); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	s.advanceLocked()
	now := s.pacer.Now()
	seed := s.cfg.Opts.Seed ^ ((s.eventsPosted + 1) * 0x9e3779b97f4a7c15)
	if slices.ContainsFunc(events, func(e scenario.Event) bool { return e.Kind == scenario.Faults }) {
		s.logf("serve: expanding faults with seed %d", seed)
	}
	events = scenario.ExpandTimeline(events, 0, seed)
	// Durability: like a request, the post is on disk before it is acked.
	// The WAL carries the expanded events, so a restore replays the same
	// crash instants without re-drawing them.
	if s.wal != nil {
		if err := s.wal.appendEvents(now, events); err != nil {
			return 0, fmt.Errorf("%w: %w", errWALAppend, err)
		}
	}
	s.eventsPosted++
	s.agenda.Add(events, now)
	for _, e := range events {
		s.logf("serve: scheduled %s event at virtual t=%.0fs", e.Kind, float64(now+simclock.Time(e.AtHours*3600)))
	}
	return now, nil
}

// validateLive checks a posted timeline: runtime kinds only, anchored at
// or after now, each event valid for its kind.
func validateLive(events []scenario.Event) error {
	for i, e := range events {
		if !e.Kind.Runtime() {
			kinds := make([]string, len(scenario.RuntimeKinds))
			for j, k := range scenario.RuntimeKinds {
				kinds[j] = string(k)
			}
			return fmt.Errorf("serve: event %d (%s): only runtime events (%s) can be injected live",
				i, e.Kind, strings.Join(kinds, ", "))
		}
		if e.AtHours < 0 {
			return fmt.Errorf("serve: event %d (%s): at_hours must be >= 0 (hours from now)", i, e.Kind)
		}
		if err := scenario.ValidateEvent(e); err != nil {
			return fmt.Errorf("serve: event %d (%s): %v", i, e.Kind, err)
		}
	}
	return nil
}

// Close stops the pacer, advances through every pending arrival, drains
// in-flight work through the backend (the event engines run to
// completion), resolves any leftover waiters as squashed, and returns the
// final result plus the number of injected requests that were still in
// flight when shutdown began.
func (s *Session) Close() (*core.Result, int) {
	// Stop the pacer first, without holding mu (it may be mid-advance).
	// closeOnce makes concurrent Close calls safe: one closes the stop
	// channel, the rest wait on the mutex and find the session closed.
	s.closeOnce.Do(func() { close(s.stop) })
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.live.Finish(), 0
	}
	drained := s.inflight
	// Serve everything already accepted: advance past the last injected
	// arrival so no in-flight request is silently dropped, then drain.
	// DrainLimit bounds the extension — a session being shut down under
	// fire stops simulating after the budget and squashes the rest.
	now := s.pacer.Now()
	target := now
	if pt := s.lastInjectedAt + simclock.Time(s.live.TickSeconds()); pt > target {
		target = pt
	}
	if lim := s.cfg.DrainLimit; lim > 0 && target > now+simclock.Time(lim) {
		s.logf("serve: drain limit %.0f virtual s reached; squashing stragglers", lim)
		target = now + simclock.Time(lim)
	}
	s.live.AdvanceTo(target)
	s.closed = true
	res := s.live.Finish()
	if s.wal != nil {
		if err := s.checkpointLocked(); err != nil {
			s.logf("serve: final checkpoint: %v", err)
		}
		s.wal.close()
	}
	// Anything still waiting can never complete now.
	for tag, w := range s.waiters {
		delete(s.waiters, tag)
		s.inflight--
		close(w.tokens)
		w.done <- Completion{Tag: tag, Squashed: true, TTFT: -1, TBT: -1, FinishedAt: s.live.Boundary()}
	}
	if drained > 0 {
		s.logf("serve: drained %d in-flight request(s) on shutdown", drained)
	}
	return res, drained
}

// --- Observer ---------------------------------------------------------------

// sessionObserver adapts Session to core.RequestObserver. Callbacks fire
// while the session lock is already held (every advance and the closing
// drain happen under mu), so waiter bookkeeping needs no extra locking.
type sessionObserver Session

func (o *sessionObserver) RequestToken(req *workload.Request, produced int, now simclock.Time) {
	s := (*Session)(o)
	if w := s.waiters[req.Tag]; w != nil {
		select {
		case w.tokens <- TokenEvent{Produced: produced, At: now}:
		default: // slow reader: drop rather than stall the simulation
		}
	}
}

func (o *sessionObserver) RequestDone(req *workload.Request, ttft, tbt float64, met bool) {
	s := (*Session)(o)
	if req.Tag == 0 {
		return
	}
	w := s.waiters[req.Tag]
	if w == nil {
		return
	}
	delete(s.waiters, req.Tag)
	s.inflight--
	fin := req.Finish
	if fin == 0 && ttft >= 0 {
		// Fluid fidelity has no engine-stamped finish instant: model it
		// as first token plus the full decode phase at the sampled TBT.
		d := ttft
		if tbt > 0 && req.OutputTokens > 1 {
			d += tbt * float64(req.OutputTokens-1)
		}
		fin = req.Arrival + simclock.Time(d)
	}
	cls := req.Class()
	// Close tokens first: a streaming reader that receives the completion
	// can then drain the remaining buffered token events and terminate.
	close(w.tokens)
	w.done <- Completion{
		Tag:        req.Tag,
		Class:      cls,
		ClassName:  cls.String(),
		AcceptedAt: req.Arrival,
		FinishedAt: fin,
		TTFT:       ttft,
		TBT:        tbt,
		SLOMet:     met,
		Squashed:   req.Squashed,
	}
}

// --- Snapshots ---------------------------------------------------------------

// Stats is the /stats JSON document: running aggregates up to the current
// virtual instant.
type Stats struct {
	VirtualSeconds float64 `json:"virtual_seconds"`
	Fidelity       string  `json:"fidelity"`
	Requests       int     `json:"requests"`
	Squashed       int     `json:"squashed"`
	Completed      int     `json:"completed"`
	Inflight       int     `json:"inflight"`
	// Retried/RetrySuccess/Shed are the core frontend-retry counters;
	// AdmissionShed counts injections this session rejected with 429
	// before they reached the simulation.
	Retried        int     `json:"retried"`
	RetrySuccess   int     `json:"retry_success"`
	Shed           int     `json:"shed"`
	AdmissionShed  int     `json:"admission_shed"`
	EnergyKWh      float64 `json:"energy_kwh"`
	EnergyCostUSD  float64 `json:"energy_cost_usd"`
	AvgServers     float64 `json:"avg_servers"`
	ActiveServers  int     `json:"active_servers"`
	SLOAttainment  float64 `json:"slo_attainment"`
	TTFTP50        float64 `json:"ttft_p50_s"`
	TTFTP99        float64 `json:"ttft_p99_s"`
	TBTP50         float64 `json:"tbt_p50_s"`
	TBTP99         float64 `json:"tbt_p99_s"`
	Reshards       int     `json:"reshards"`
	ScaleOuts      int     `json:"scale_outs"`
	ScaleIns       int     `json:"scale_ins"`
	Emergencies    int     `json:"emergencies"`
	Outages        int     `json:"outages"`
	Recoveries     int     `json:"recoveries"`
	PriceMult      float64 `json:"price_mult"`
	SLOFactor      float64 `json:"slo_factor"`
	TraceLoops     int     `json:"trace_loops"`
	HorizonReached bool    `json:"horizon_reached"`
	SimLagSeconds  float64 `json:"sim_lag_virtual_s"`
	PendingArrival int     `json:"pending_arrivals"`
	// KV-cache occupancy and dynamics, spill tier included (event
	// fidelity; blocks under block-granular accounting, tokens under the
	// legacy path; the tier fields are zero when no tier is configured).
	core.KVStats
	// RestoredAtS is the virtual instant a crash-restored session resumed
	// from (0 for a fresh session); LastCheckpointS is the virtual instant
	// of the latest durable checkpoint (0 when durability is off).
	RestoredAtS     float64 `json:"restored_at_virtual_s,omitempty"`
	LastCheckpointS float64 `json:"last_checkpoint_virtual_s,omitempty"`
}

// Stats advances the session to the present and snapshots it.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	return s.statsLocked()
}

func (s *Session) statsLocked() Stats {
	res := s.live.Result()
	boundary := float64(s.live.Boundary())
	st := Stats{
		VirtualSeconds:  boundary,
		Fidelity:        s.live.Options().Fidelity.String(),
		Requests:        res.Requests,
		Squashed:        res.Squashed,
		Completed:       res.Completed,
		Inflight:        s.inflight,
		Retried:         res.Retried,
		RetrySuccess:    res.RetrySuccess,
		Shed:            res.Shed,
		AdmissionShed:   s.shed,
		EnergyKWh:       res.EnergyKWh(),
		EnergyCostUSD:   res.EnergyCostUSD,
		ActiveServers:   s.live.ActiveServers(),
		SLOAttainment:   res.SLOAttainment(),
		TTFTP50:         res.TTFT.Percentile(50),
		TTFTP99:         res.TTFT.Percentile(99),
		TBTP50:          res.TBT.Percentile(50),
		TBTP99:          res.TBT.Percentile(99),
		Reshards:        res.Reshards,
		ScaleOuts:       res.ScaleOuts,
		ScaleIns:        res.ScaleIns,
		Emergencies:     res.Emergencies,
		Outages:         res.Outages,
		Recoveries:      res.Recoveries,
		PriceMult:       s.live.PriceMult(),
		SLOFactor:       s.live.SLOFactor(),
		TraceLoops:      s.live.Loops(),
		HorizonReached:  s.horizonReached,
		PendingArrival:  s.live.PendingArrivals(),
		KVStats:         s.live.KVStats(),
		RestoredAtS:     float64(s.restoredAt),
		LastCheckpointS: float64(s.lastCkptAt),
	}
	if boundary > 0 {
		st.AvgServers = res.GPUSeconds / 8 / boundary
	}
	if lag := float64(s.pacer.Now()) - boundary; lag > 0 {
		st.SimLagSeconds = lag
	}
	return st
}

// ConfigInfo is the /config JSON document.
type ConfigInfo struct {
	Systems           []string `json:"systems"`
	System            string   `json:"system"`
	Fidelity          string   `json:"fidelity"`
	Fidelities        []string `json:"fidelities"`
	Model             string   `json:"model"`
	NumPools          int      `json:"num_pools"`
	ScaleInstances    bool     `json:"scale_instances"`
	ScaleSharding     bool     `json:"scale_sharding"`
	ScaleFrequency    bool     `json:"scale_frequency"`
	ReducedOverheads  bool     `json:"reduced_overheads"`
	Servers           int      `json:"servers"`
	PredictorAccuracy float64  `json:"predictor_accuracy"`
	Speed             float64  `json:"speed"`
	Loop              bool     `json:"loop"`
	TraceRequests     int      `json:"trace_requests"`
}

// Config describes the session's active configuration, with every core
// default resolved.
func (s *Session) Config() ConfigInfo {
	opts := s.live.Options()
	modelName := ""
	if opts.Model != nil {
		modelName = opts.Model.Name
	}
	return ConfigInfo{
		Systems:           core.SystemNames,
		System:            s.cfg.Name,
		Fidelity:          opts.Fidelity.String(),
		Fidelities:        core.FidelityNames,
		Model:             modelName,
		NumPools:          opts.NumPools,
		ScaleInstances:    opts.ScaleInstances,
		ScaleSharding:     opts.ScaleSharding,
		ScaleFrequency:    opts.ScaleFrequency,
		ReducedOverheads:  opts.ReducedOverheads,
		Servers:           opts.Servers,
		PredictorAccuracy: opts.PredictorAccuracy,
		Speed:             s.cfg.Speed,
		Loop:              s.cfg.Loop,
		TraceRequests:     len(s.cfg.Trace),
	}
}
