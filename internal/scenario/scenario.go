// Package scenario is the declarative scenario engine: it wraps a base
// synthetic trace with a timeline of injected cluster conditions — load
// spikes and flash crowds, request-mix shifts, instance/GPU outages and
// recoveries, electricity-price signals, and SLO-tightening windows — so
// the energy-aware controllers can be evaluated far from the smooth
// diurnal traces the paper uses.
//
// A Scenario is plain data, definable in Go or loadable from JSON
// (Load/LoadFile). Its events split into two groups at compile time:
// trace-level events (spike, mix-shift) become composable trace.Modifier
// transforms applied before the simulation starts, and runtime events
// (outage, recovery, rack, straggler, blip, price, slo) go into an Agenda,
// the tick hook that fires them inside the tick loop through the
// core.Controls facade without disturbing its zero-allocation steady
// state. The stochastic faults kind sits in between: ExpandFaults draws
// its MTBF-driven crashes and repairs into concrete, seeded events
// before the agenda is built, so fault runs replay exactly. A live
// serving session appends operator-posted events to its own Agenda.
//
// Library returns the named built-in scenarios (flashcrowd, blackfriday,
// gpu-failures, price-surge, slo-crunch, mixed-week, chaos-monkey) that
// the `dynamobench scenario` command and the expt scenario sweep drive.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"

	"dynamollm/internal/core"
	"dynamollm/internal/order"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// Kind names an event type; it is the JSON discriminator.
type Kind string

// The event kinds the engine understands.
const (
	// Spike multiplies the arrival rate inside the event window
	// (RateMult > 1 = flash crowd, < 1 = demand drop). Trace-level.
	Spike Kind = "spike"
	// MixShift re-draws a fraction of the window's requests from a
	// biased class distribution (ClassWeights/Fraction). Trace-level.
	MixShift Kind = "mix-shift"
	// Outage abruptly fails Servers 8-GPU servers at the event time.
	Outage Kind = "outage"
	// Recovery restores Servers previously failed servers (they pay the
	// usual provisioning latency before serving again).
	Recovery Kind = "recovery"
	// Price sets the electricity-price multiplier to PriceMult for the
	// event window (1 after the window ends).
	Price Kind = "price"
	// SLO scales request SLOs by SLOFactor for the event window
	// (values below 1 tighten).
	SLO Kind = "slo"

	// Faults is the stochastic fault injector: over the event window,
	// instance crashes arrive as a Poisson process with mean time between
	// failures MTBFHours; each crash fails Servers servers (default 1)
	// and schedules its recovery an Exp(RepairHours)-distributed delay
	// later. ExpandFaults draws the concrete crash/repair instants from a
	// seed, so the expansion is reproducible and independent of
	// simulation parallelism.
	Faults Kind = "faults"
	// Rack is a correlated failure: Servers co-located instances (one
	// placement group, all serving the same request type) die at the
	// event time. RepairHours > 0 schedules the matching recovery.
	Rack Kind = "rack"
	// Straggler degrades Servers instances to SlowFactor of their
	// commanded clock for the event window, then repairs them. The
	// controllers never see the fault directly — only its symptoms.
	Straggler Kind = "straggler"
	// Blip adds DelaySeconds of frontend submission latency for the
	// event window — a transient network or gateway slowdown between the
	// frontend and the instances.
	Blip Kind = "blip"

	// CacheThrash tags a Fraction of the window's requests with shared
	// prompt groups (Groups distinct ones): few groups concentrate reuse
	// the engines' prefix caches exploit, many groups cycle distinct
	// prefixes through the cache and thrash it. Trace-level.
	CacheThrash Kind = "cache-thrash"
)

// Event is one injected condition on the scenario timeline. Times are in
// hours from the start of the scenario's trace window, the way an
// operator writes an incident timeline. Only the fields relevant to the
// Kind are consulted; Validate rejects events whose required fields are
// missing or out of range.
type Event struct {
	// Kind selects the event type.
	Kind Kind `json:"kind"`
	// AtHours is when the event starts, in hours from trace start.
	AtHours float64 `json:"at_hours"`
	// DurationHours bounds windowed events (spike, mix-shift, price,
	// slo); zero-duration windowed events are rejected.
	DurationHours float64 `json:"duration_hours,omitempty"`
	// RateMult is the spike's arrival-rate multiplier.
	RateMult float64 `json:"rate_mult,omitempty"`
	// ClassWeights is the mix-shift target distribution, keyed by class
	// name ("SS".."LL"): re-drawn requests sample their class with
	// probability proportional to these weights (omitted classes are
	// never drawn). It is an absolute distribution, not a multiplier on
	// the base mix.
	ClassWeights map[string]float64 `json:"class_weights,omitempty"`
	// Fraction is the share of in-window requests a mix-shift re-draws
	// (default 0.5 when zero).
	Fraction float64 `json:"fraction,omitempty"`
	// Servers is how many 8-GPU servers an outage fails or a recovery
	// restores.
	Servers int `json:"servers,omitempty"`
	// PriceMult is the electricity-price multiplier of a price event.
	PriceMult float64 `json:"price_mult,omitempty"`
	// SLOFactor scales the SLOs inside an slo event's window.
	SLOFactor float64 `json:"slo_factor,omitempty"`
	// MTBFHours is a faults event's mean time between crashes.
	MTBFHours float64 `json:"mtbf_hours,omitempty"`
	// RepairHours is the mean crash-to-recovery delay of a faults event,
	// or the fixed repair delay of a rack event (0 = never repaired).
	RepairHours float64 `json:"repair_hours,omitempty"`
	// SlowFactor is a straggler's achieved-clock fraction, in (0, 1).
	SlowFactor float64 `json:"slow_factor,omitempty"`
	// DelaySeconds is a blip's added frontend submission latency.
	DelaySeconds float64 `json:"delay_seconds,omitempty"`
	// Groups is how many distinct prompt groups a cache-thrash event
	// spreads its tagged requests over.
	Groups int `json:"prompt_groups,omitempty"`
}

// window returns the event's [from, to) in simulation seconds.
func (e Event) window() (from, to simclock.Time) {
	from = simclock.Time(e.AtHours * 3600)
	to = from + simclock.Time(e.DurationHours*3600)
	return from, to
}

// RuntimeKinds lists, in documentation order, the kinds that fire inside
// a running simulation (through the tick hook) rather than rewriting the
// trace before it starts. Only these can be injected into a live serving
// session.
var RuntimeKinds = []Kind{Outage, Recovery, Rack, Straggler, Blip, Faults, Price, SLO}

// Runtime reports whether the kind is one of RuntimeKinds.
func (k Kind) Runtime() bool { return slices.Contains(RuntimeKinds, k) }

// badNum reports a value no field may carry: NaN slips through one-sided
// comparisons (NaN <= 0 is false), and infinities turn window arithmetic
// and expansion loops degenerate. Both must be rejected explicitly.
func badNum(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// ValidateEvent checks the fields an event's kind requires, independent
// of any scenario trace window. Scenario.Validate adds the window bounds
// on top; the live serving session validates injected events with this
// alone. Besides kind-specific ranges it enforces the global sanity
// bounds that keep hostile inputs (fuzzed or operator typos) from
// expanding into unbounded work: no NaN/Inf anywhere, amplification
// capped, and stochastic fault windows capped in expected crash count.
func ValidateEvent(e Event) error {
	if badNum(e.AtHours, e.DurationHours, e.RateMult, e.Fraction, e.PriceMult,
		e.SLOFactor, e.MTBFHours, e.RepairHours, e.SlowFactor, e.DelaySeconds) {
		return fmt.Errorf("numeric fields must be finite")
	}
	//dynamolint:order-independent every bad weight yields the same error; order cannot change it
	for _, w := range e.ClassWeights {
		if badNum(w) || w < 0 {
			return fmt.Errorf("class_weights must be finite and non-negative")
		}
	}
	if e.Fraction < 0 || e.Fraction > 1 {
		return fmt.Errorf("fraction must be in [0, 1]")
	}
	switch e.Kind {
	case Spike:
		if e.RateMult <= 0 {
			return fmt.Errorf("rate_mult must be positive")
		}
		if e.RateMult > 1000 {
			return fmt.Errorf("rate_mult %v exceeds the 1000x amplification cap", e.RateMult)
		}
		if e.DurationHours <= 0 {
			return fmt.Errorf("duration_hours must be positive")
		}
	case MixShift:
		if e.DurationHours <= 0 {
			return fmt.Errorf("duration_hours must be positive")
		}
		if len(e.ClassWeights) == 0 {
			return fmt.Errorf("class_weights must name at least one class")
		}
		// Sorted so a scenario with several bad class names reports the
		// same one every run.
		for _, name := range order.Keys(e.ClassWeights) {
			if _, err := workload.ParseClass(name); err != nil {
				return err
			}
		}
	case Outage, Recovery:
		if e.Servers <= 0 {
			return fmt.Errorf("servers must be positive")
		}
	case Price:
		if e.PriceMult <= 0 {
			return fmt.Errorf("price_mult must be positive")
		}
		if e.DurationHours <= 0 {
			return fmt.Errorf("duration_hours must be positive")
		}
	case SLO:
		if e.SLOFactor <= 0 {
			return fmt.Errorf("slo_factor must be positive")
		}
		if e.DurationHours <= 0 {
			return fmt.Errorf("duration_hours must be positive")
		}
	case Faults:
		if e.MTBFHours <= 0 {
			return fmt.Errorf("mtbf_hours must be positive")
		}
		if e.RepairHours <= 0 {
			return fmt.Errorf("repair_hours must be positive")
		}
		if e.DurationHours <= 0 {
			return fmt.Errorf("duration_hours must be positive")
		}
		if e.DurationHours/e.MTBFHours > 1e5 {
			return fmt.Errorf("faults window expands to ~%.0f expected crashes (cap 100000)",
				e.DurationHours/e.MTBFHours)
		}
	case Rack:
		if e.Servers <= 0 {
			return fmt.Errorf("servers must be positive")
		}
		if e.RepairHours < 0 {
			return fmt.Errorf("repair_hours must not be negative")
		}
	case Straggler:
		if e.Servers <= 0 {
			return fmt.Errorf("servers must be positive")
		}
		if e.SlowFactor <= 0 || e.SlowFactor >= 1 {
			return fmt.Errorf("slow_factor must be in (0, 1)")
		}
		if e.DurationHours <= 0 {
			return fmt.Errorf("duration_hours must be positive")
		}
	case Blip:
		if e.DelaySeconds <= 0 {
			return fmt.Errorf("delay_seconds must be positive")
		}
		if e.DurationHours <= 0 {
			return fmt.Errorf("duration_hours must be positive")
		}
	case CacheThrash:
		if e.DurationHours <= 0 {
			return fmt.Errorf("duration_hours must be positive")
		}
		if e.Groups <= 0 {
			return fmt.Errorf("prompt_groups must be positive")
		}
		if e.Groups > 1<<20 {
			return fmt.Errorf("prompt_groups %d exceeds the 2^20 cap", e.Groups)
		}
	default:
		return fmt.Errorf("unknown kind")
	}
	return nil
}

// Scenario is a named, self-contained experiment condition: a base
// synthetic trace (service, window, duration) plus the event timeline
// perturbing it. The zero value is not useful; construct literals, use
// the Library, or Load JSON.
type Scenario struct {
	// Name identifies the scenario (CLI argument, table row label).
	Name string `json:"name"`
	// Description is the one-line operator summary.
	Description string `json:"description,omitempty"`
	// Service selects the base workload profile: "conversation"
	// (default) or "coding".
	Service string `json:"service,omitempty"`
	// StartHours offsets the trace window within the synthetic week
	// (t = 0 is Monday 00:00), so scenarios can start on a morning ramp
	// or a weekend valley.
	StartHours float64 `json:"start_hours,omitempty"`
	// Days is the trace duration in days.
	Days float64 `json:"days"`
	// PeakRPS overrides the weekly-peak request rate (0 = harness
	// default).
	PeakRPS float64 `json:"peak_rps,omitempty"`
	// Events is the injected timeline; an empty list makes the scenario
	// a plain pass-through of the base trace.
	Events []Event `json:"events,omitempty"`
}

// ServiceProfile resolves the Service field to a trace.Service.
func (s *Scenario) ServiceProfile() (trace.Service, error) {
	switch s.Service {
	case "", "conversation":
		return trace.Conversation, nil
	case "coding":
		return trace.Coding, nil
	}
	return 0, fmt.Errorf("scenario %q: unknown service %q (want conversation|coding)", s.Name, s.Service)
}

// ServiceName returns the display name of the scenario's service,
// resolving the empty default — the single place the "empty means
// conversation" rule is rendered.
func (s *Scenario) ServiceName() string {
	if s.Service == "" {
		return trace.Conversation.String()
	}
	return s.Service
}

// Start returns the trace window's offset within the synthetic week —
// the load-predictor warm function needs it to line historical rates up
// with simulation time.
func (s *Scenario) Start() simclock.Time {
	return simclock.Time(s.StartHours * 3600)
}

// Validate checks the scenario is well-formed: known service and event
// kinds, positive duration, events inside the trace window with the
// fields their kind requires.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if _, err := s.ServiceProfile(); err != nil {
		return err
	}
	if badNum(s.Days, s.StartHours, s.PeakRPS) {
		return fmt.Errorf("scenario %q: numeric fields must be finite", s.Name)
	}
	if s.Days <= 0 {
		return fmt.Errorf("scenario %q: non-positive days %v", s.Name, s.Days)
	}
	if s.Days > 3650 {
		return fmt.Errorf("scenario %q: %v days exceeds the 10-year cap", s.Name, s.Days)
	}
	if s.StartHours < 0 || s.StartHours > 24*3650 {
		return fmt.Errorf("scenario %q: start_hours %v outside [0, 10 years]", s.Name, s.StartHours)
	}
	if s.PeakRPS < 0 || s.PeakRPS > 1e6 {
		return fmt.Errorf("scenario %q: peak_rps %v outside [0, 1e6]", s.Name, s.PeakRPS)
	}
	horizon := s.Days * 24
	for i, e := range s.Events {
		at := fmt.Sprintf("scenario %q: event %d (%s)", s.Name, i, e.Kind)
		if e.AtHours < 0 || e.AtHours > horizon {
			return fmt.Errorf("%s: at_hours %v outside the %v-hour trace", at, e.AtHours, horizon)
		}
		if err := ValidateEvent(e); err != nil {
			return fmt.Errorf("%s: %v", at, err)
		}
	}
	return nil
}

// GenTrace generates the scenario's perturbed trace: the base service
// trace over [StartHours, StartHours+Days), time-shifted to t = 0, with
// every trace-level event applied. peakRPS <= 0 keeps the scenario's own
// PeakRPS (which must then be set); maxDays > 0 caps the duration (quick
// harness runs). The result is deterministic in (scenario, peakRPS,
// maxDays, seed).
func (s *Scenario) GenTrace(peakRPS, maxDays float64, seed uint64) (trace.Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	svc, err := s.ServiceProfile()
	if err != nil {
		return nil, err
	}
	if peakRPS <= 0 {
		peakRPS = s.PeakRPS
	}
	if peakRPS <= 0 {
		return nil, fmt.Errorf("scenario %q: no peak rate (set PeakRPS or pass one)", s.Name)
	}
	days := s.Days
	if maxDays > 0 && days > maxDays {
		days = maxDays
	}
	tr := trace.Generate(trace.GenConfig{
		Service:  svc,
		Start:    s.Start(),
		Duration: days * simclock.Day,
		PeakRPS:  peakRPS,
		Seed:     seed,
	})
	return s.ApplyTrace(tr, seed), nil
}

// ApplyTrace applies the scenario's trace-level events (spikes and mix
// shifts) to an already-generated trace whose t = 0 is the scenario
// start. Runtime events are untouched — install Hook for those. With no
// trace-level events the input is returned unchanged (same backing
// array), so an event-free scenario is an exact pass-through.
func (s *Scenario) ApplyTrace(tr trace.Trace, seed uint64) trace.Trace {
	mods := make([]trace.Modifier, 0, len(s.Events))
	for i, e := range s.Events {
		from, to := e.window()
		evSeed := seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
		switch e.Kind {
		case Spike:
			mods = append(mods, trace.AmplifyWindow(from, to, e.RateMult, evSeed))
		case MixShift:
			var w [workload.NumClasses]float64
			// Sorted so two aliases of the same class resolve their
			// last-write-wins race identically every run.
			for _, name := range order.Keys(e.ClassWeights) {
				cls, err := workload.ParseClass(name)
				if err != nil {
					continue // Validate rejects this before simulation
				}
				w[cls] = e.ClassWeights[name]
			}
			frac := e.Fraction
			if frac <= 0 {
				frac = 0.5
			}
			mods = append(mods, trace.ShiftMixWindow(from, to, w, frac, evSeed))
		case CacheThrash:
			frac := e.Fraction
			if frac <= 0 {
				frac = 0.5
			}
			mods = append(mods, trace.GroupPrompts(from, to, frac, e.Groups, evSeed))
		}
	}
	if len(mods) == 0 {
		return tr
	}
	return trace.Compose(mods...)(tr)
}

// Hook compiles the scenario's runtime events (outages, recoveries, rack
// failures, stragglers, blips, price signals, SLO windows) into an Agenda
// tick hook, or nil if there are none. Stochastic faults events are first
// expanded into concrete crash/repair instants with the seed (see
// ExpandFaults), so the same (scenario, seed) always yields the same hook.
// Every call returns a fresh hook: an Agenda carries per-run state and
// must never be shared between simulations.
func (s *Scenario) Hook(seed uint64) core.TickHook {
	a := NewAgenda()
	a.Add(ExpandTimeline(s.Events, s.Days*24, seed), 0)
	if a.empty() {
		return nil
	}
	return a
}

// ExpandTimeline returns the timeline with every stochastic faults event
// replaced by its seeded concrete expansion (ExpandFaults against
// horizonHours); timelines without faults events are returned unchanged
// (same backing array). Scenario runs and live sessions both expand
// through it before adding to their Agenda.
func ExpandTimeline(timeline []Event, horizonHours float64, seed uint64) []Event {
	faults := ExpandFaults(timeline, horizonHours, seed)
	if len(faults) == 0 {
		return timeline
	}
	merged := make([]Event, 0, len(timeline)+len(faults))
	for _, e := range timeline {
		if e.Kind != Faults { // replaced by the expansion
			merged = append(merged, e)
		}
	}
	return append(merged, faults...)
}

// ExpandFaults draws the stochastic faults events of a timeline into
// concrete outage/recovery events, sorted by time: every crash and its
// matching recovery pinned to an instant. Expanding once, before the
// simulation starts, is what makes fault runs replayable — the expansion
// depends only on (timeline, horizon, seed), never on fidelity,
// parallelism, or tick order. Crashes arrive as a Poisson process
// (exponential gaps, mean MTBFHours) inside each event's window; each
// crash fails Servers servers (default 1) and is followed by a recovery
// after an exponential repair delay (mean RepairHours), dropped when it
// would land past horizonHours. Each faults event draws from its own RNG stream
// derived from (seed, event index), so adding or editing one event never
// reshuffles another's instants.
func ExpandFaults(timeline []Event, horizonHours float64, seed uint64) []Event {
	var out []Event
	for i, e := range timeline {
		if e.Kind != Faults {
			continue
		}
		rng := simclock.NewRNG(seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15))
		servers := e.Servers
		if servers <= 0 {
			servers = 1
		}
		to := e.AtHours + e.DurationHours
		if horizonHours > 0 && to > horizonHours {
			to = horizonHours
		}
		for t := e.AtHours + rng.Exp(1/e.MTBFHours); t < to; t += rng.Exp(1 / e.MTBFHours) {
			out = append(out, Event{Kind: Outage, AtHours: t, Servers: servers})
			repair := t + rng.Exp(1/e.RepairHours)
			if horizonHours <= 0 || repair < horizonHours {
				out = append(out, Event{Kind: Recovery, AtHours: repair, Servers: servers})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].AtHours < out[j].AtHours
	})
	return out
}

// Load parses a JSON scenario and validates it.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile is Load on a file path.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
