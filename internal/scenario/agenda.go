package scenario

import (
	"math"
	"slices"
	"sort"

	"dynamollm/internal/core"
	"dynamollm/internal/simclock"
)

// Agenda is the runtime-event tick hook: every runtime event a simulation
// reacts to, whether scripted in a scenario or posted to a live serving
// session, fires through one. It holds two parts:
//
//   - the pending instant events (outages, recoveries, rack failures and
//     their repairs, straggler onsets and repairs) in firing order, fired
//     once on the first tick whose time reaches them, equal times in the
//     order they were added;
//   - the price, SLO and submit-delay window sets, evaluated every tick:
//     the value in force is that of the most recently started window
//     still open (ties go to the later-added window), or the nominal
//     value when none is, and it is set through core.Controls only when
//     it changes.
//
// Windows therefore compose no matter when they were added: a window
// ending never clobbers another that is still open. Add may be called
// between ticks of a running simulation. An Agenda is single-run state and
// is not safe for concurrent use; Scenario.Hook returns a fresh one per
// call.
type Agenda struct {
	pending []instant // sorted by at from head on
	head    int

	price, slo, delay windowSet
}

// instant is one pending event: do fires through the Controls facade on
// the first tick whose time reaches at.
type instant struct {
	at simclock.Time
	do func(ctl *core.Controls)
}

// window is a half-open [from, to) interval during which val holds.
type window struct {
	from, to simclock.Time
	val      float64
}

// windowSet is the open and future windows of one value: nominal is the
// value when no window is open, cur the value last set.
type windowSet struct {
	wins         []window
	nominal, cur float64
}

// NewAgenda returns an empty agenda: price and SLO at 1, no submit delay.
func NewAgenda() *Agenda {
	return &Agenda{
		price: windowSet{nominal: 1, cur: 1},
		slo:   windowSet{nominal: 1, cur: 1},
	}
}

// Add schedules the runtime events of a timeline at offset plus their own
// instants (a live session passes the current virtual time; a scenario
// passes 0, its trace start). Trace-level kinds have no runtime form and
// are skipped, as are faults events: they are stochastic and must be
// expanded into concrete outages and recoveries first (ExpandTimeline).
func (a *Agenda) Add(timeline []Event, offset simclock.Time) {
	for _, e := range timeline {
		from, to := e.window()
		from, to = offset+from, offset+to
		switch e.Kind {
		case Outage:
			a.at(from, func(ctl *core.Controls) { ctl.FailServers(e.Servers) })
		case Recovery:
			a.at(from, func(ctl *core.Controls) { ctl.RecoverServers(e.Servers) })
		case Rack:
			a.at(from, func(ctl *core.Controls) { ctl.FailRack(e.Servers) })
			if e.RepairHours > 0 {
				a.at(from+simclock.Time(e.RepairHours*3600), func(ctl *core.Controls) { ctl.RecoverServers(e.Servers) })
			}
		case Straggler:
			a.at(from, func(ctl *core.Controls) { ctl.StraggleServers(e.Servers, e.SlowFactor) })
			a.at(to, func(ctl *core.Controls) { ctl.RepairStragglers(e.Servers) })
		case Price:
			a.price.wins = append(a.price.wins, window{from, to, e.PriceMult})
		case SLO:
			a.slo.wins = append(a.slo.wins, window{from, to, e.SLOFactor})
		case Blip:
			a.delay.wins = append(a.delay.wins, window{from, to, e.DelaySeconds})
		}
	}
}

// at schedules do for the first tick reaching t, after every pending
// event due at or before t.
func (a *Agenda) at(t simclock.Time, do func(*core.Controls)) {
	pending := a.pending[a.head:]
	i := a.head + sort.Search(len(pending), func(i int) bool { return pending[i].at > t })
	a.pending = slices.Insert(a.pending, i, instant{at: t, do: do})
}

// empty reports whether nothing is pending and no window is open or due.
func (a *Agenda) empty() bool {
	return a.head == len(a.pending) &&
		len(a.price.wins)+len(a.slo.wins)+len(a.delay.wins) == 0
}

// OnTick fires the instant events due at or before now, then sets each
// windowed value whose value in force changed.
//
//dynamolint:steadystate
func (a *Agenda) OnTick(now simclock.Time, ctl *core.Controls) {
	for a.head < len(a.pending) && a.pending[a.head].at <= now {
		do := a.pending[a.head].do
		a.pending[a.head] = instant{}
		a.head++
		do(ctl)
	}
	if a.head == len(a.pending) {
		a.pending, a.head = a.pending[:0], 0
	}
	if v, ok := a.price.activeValue(now); ok {
		ctl.SetPriceMult(v)
	}
	if v, ok := a.slo.activeValue(now); ok {
		ctl.SetSLOFactor(v)
	}
	if v, ok := a.delay.activeValue(now); ok {
		ctl.SetSubmitDelay(v)
	}
}

// activeValue returns the value in force at now and whether it differs from
// the value last returned, dropping windows that have ended. Successive
// calls must not go back in time.
//
//dynamolint:steadystate
func (ws *windowSet) activeValue(now simclock.Time) (float64, bool) {
	if len(ws.wins) == 0 {
		return ws.cur, false // the last window's end already restored nominal
	}
	v, started := ws.nominal, simclock.Time(math.Inf(-1))
	open := ws.wins[:0]
	for _, w := range ws.wins {
		if w.to <= now {
			continue
		}
		if w.from <= now && w.from >= started {
			started, v = w.from, w.val
		}
		open = append(open, w)
	}
	ws.wins = open
	if v == ws.cur {
		return v, false
	}
	ws.cur = v
	return v, true
}
