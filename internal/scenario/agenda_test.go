package scenario

import (
	"slices"
	"sync"
	"testing"

	"dynamollm/internal/core"
	"dynamollm/internal/profile"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
)

// hookFunc adapts a function to core.TickHook, so a test can wrap an
// Agenda and read the Controls it drives.
type hookFunc func(now simclock.Time, ctl *core.Controls)

func (f hookFunc) OnTick(now simclock.Time, ctl *core.Controls) { f(now, ctl) }

var agendaRepo = sync.OnceValue(func() *profile.Repository { return profile.NewRepository(nil) })

// runHooked runs the singlepool preset over a light trace spanning the
// given virtual minutes, with hook installed.
func runHooked(minutes int, hook core.TickHook) *core.Result {
	tr := make(trace.Trace, minutes*6)
	for i := range tr {
		tr[i] = trace.Entry{At: simclock.Time(10 * (i + 1)), InputTokens: 128, OutputTokens: 16}
	}
	opts, _ := core.SystemByName("singlepool")
	opts.Seed = 7
	opts.Hook = hook
	return core.RunWithRepo(tr, opts, agendaRepo())
}

// TestAgendaOrderingAndFiring: instant events fire in time order
// regardless of the order they were added, exactly once, equal-time
// events in insertion order, and events added mid-run slot in among the
// ones still pending.
func TestAgendaOrderingAndFiring(t *testing.T) {
	var fired []int
	mk := func(id int) func(*core.Controls) {
		return func(*core.Controls) { fired = append(fired, id) }
	}
	a := NewAgenda()
	a.at(30, mk(3))
	a.at(10, mk(1))
	a.at(30, mk(4)) // same time as id 3, added after
	a.at(20, mk(2))
	// No windows are open, so OnTick never touches the nil Controls.
	for now := simclock.Time(0); now <= 25; now += 5 {
		a.OnTick(now, nil)
	}
	a.at(30, mk(5)) // added mid-run, same time as the pending 3 and 4
	a.at(28, mk(6))
	for now := simclock.Time(30); now <= 50; now += 5 {
		a.OnTick(now, nil)
	}
	if want := []int{1, 2, 6, 3, 4, 5}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	// Already past: nothing fires twice.
	a.OnTick(100, nil)
	if len(fired) != 6 {
		t.Errorf("events re-fired: %v", fired)
	}
	if !a.empty() {
		t.Error("agenda not empty after every event fired")
	}
}

// TestAgendaWindows: overlapping and abutting windows yield the value
// actually in force — a window's end never resets a sibling that is still
// open, and abutting windows hand over without a dip to the nominal value
// — and the value is reported only at the ticks where it changes.
func TestAgendaWindows(t *testing.T) {
	h := func(hours float64) simclock.Time { return simclock.Time(hours * 3600) }
	events := []Event{
		{Kind: Price, AtHours: 14, DurationHours: 4, PriceMult: 4},   // listed before the window that abuts it
		{Kind: Price, AtHours: 11, DurationHours: 3, PriceMult: 0.4}, // abuts at 14h
		{Kind: Price, AtHours: 20, DurationHours: 10, PriceMult: 2},  // enclosing
		{Kind: Price, AtHours: 22, DurationHours: 3, PriceMult: 3},   // nested inside it
	}
	a := NewAgenda()
	a.Add(events, 0)
	cases := []struct {
		atHours float64
		want    float64
	}{
		{10, 1}, {11, 0.4}, {13.9, 0.4},
		{14, 4}, // abutting handover, no dip to 1
		{17.9, 4}, {18, 1},
		{20, 2}, {22, 3}, {24.9, 3},
		{25, 2}, // nested window ends, enclosing value restored
		{29.9, 2}, {30, 1},
	}
	for _, tc := range cases {
		if got, _ := a.price.activeValue(h(tc.atHours)); got != tc.want {
			t.Errorf("price at %vh = %v, want %v", tc.atHours, got, tc.want)
		}
	}
	if !a.empty() {
		t.Error("ended windows were not dropped")
	}

	a = NewAgenda()
	a.Add(events, 0)
	var changes []float64
	for now := simclock.Time(0); now <= h(31); now += 60 {
		if v, ok := a.price.activeValue(now); ok {
			changes = append(changes, v)
		}
	}
	if want := []float64{0.4, 4, 1, 2, 3, 2, 1}; !slices.Equal(changes, want) {
		t.Errorf("value changes %v, want %v", changes, want)
	}
}

// TestAgendaAdd: trace-level kinds and unexpanded faults are skipped,
// runtime kinds land in the agenda, and the offset shifts every instant
// (a serving session schedules relative to "now").
func TestAgendaAdd(t *testing.T) {
	const offset = simclock.Time(500)
	a := NewAgenda()
	a.Add([]Event{
		{Kind: Spike, AtHours: 0, DurationHours: 1, RateMult: 3},                   // trace-level: skipped
		{Kind: Faults, AtHours: 0, DurationHours: 1, MTBFHours: 1, RepairHours: 1}, // unexpanded: skipped
		{Kind: Outage, AtHours: 1, Servers: 2},
		{Kind: Price, AtHours: 2, DurationHours: 1, PriceMult: 5},
		{Kind: Blip, AtHours: 0.5, DurationHours: 0.25, DelaySeconds: 2},
	}, offset)
	if len(a.pending) != 1 || a.pending[0].at != offset+3600 {
		t.Fatalf("pending %d instant(s), first at %v; want one outage at %v", len(a.pending), a.pending[0].at, offset+3600)
	}
	if w := a.price.wins; len(w) != 1 || w[0].from != offset+7200 || w[0].to != offset+10800 {
		t.Errorf("price windows %+v, want one over [%v, %v)", w, offset+7200, offset+10800)
	}
	if w := a.delay.wins; len(w) != 1 || w[0].from != offset+1800 || w[0].val != 2 {
		t.Errorf("delay windows %+v, want one from %v", w, offset+1800)
	}

	for _, k := range RuntimeKinds {
		if !k.Runtime() {
			t.Errorf("%s.Runtime() = false, want true", k)
		}
	}
	for _, k := range []Kind{Spike, MixShift, CacheThrash, Kind("bogus")} {
		if k.Runtime() {
			t.Errorf("%s.Runtime() = true, want false", k)
		}
	}
	if err := ValidateEvent(Event{Kind: Outage}); err == nil {
		t.Error("outage without servers validated")
	}
	if err := ValidateEvent(Event{Kind: Kind("bogus")}); err == nil {
		t.Error("unknown kind validated")
	}
}

// TestAgendaBlipsCompose is the regression test for blips added in
// separate calls: a second, longer blip added after the first has started
// must hold its delay until it ends, not be reset to 0 when the first
// blip's window closes.
func TestAgendaBlipsCompose(t *testing.T) {
	const added = simclock.Time(450)
	a := NewAgenda()
	a.Add([]Event{{Kind: Blip, AtHours: 0.0625, DurationHours: 0.125, DelaySeconds: 2}}, 0) // [225, 675)
	second := []Event{{Kind: Blip, DurationHours: 0.125, DelaySeconds: 5}}                  // [450, 900) once added
	var at []simclock.Time
	var delay []float64
	res := runHooked(20, hookFunc(func(now simclock.Time, ctl *core.Controls) {
		if now >= added && len(second) > 0 {
			a.Add(second, added)
			second = nil
		}
		a.OnTick(now, ctl)
		at, delay = append(at, now), append(delay, ctl.SubmitDelay())
	}))
	if len(at) == 0 || at[len(at)-1] < 900 {
		t.Fatalf("run stopped before both blips ended (ticks %v)", at)
	}
	for i, now := range at {
		want := 0.0
		switch {
		case now >= 900:
		case now >= added:
			want = 5
		case now >= 225:
			want = 2
		}
		if delay[i] != want {
			t.Errorf("submit delay at t=%v = %v, want %v", now, delay[i], want)
		}
	}
	if res.Blips != 1 {
		t.Errorf("Blips = %d, want 1 (one continuous delayed stretch)", res.Blips)
	}
}

// TestAgendaOnTickAllocationFree: with instants pending and windows open
// (one of them starting inside the measured stretch, so a value is set),
// OnTick performs no heap allocation — the tick loop's zero-allocation
// invariant holds with the agenda installed.
func TestAgendaOnTickAllocationFree(t *testing.T) {
	a := NewAgenda()
	a.Add([]Event{
		{Kind: Outage, AtHours: 10, Servers: 1},
		{Kind: Price, AtHours: 0, DurationHours: 2, PriceMult: 3},
		{Kind: SLO, AtHours: 0, DurationHours: 2, SLOFactor: 0.5},
		{Kind: Blip, AtHours: 0.03125, DurationHours: 1, DelaySeconds: 1}, // opens at 112.5 s
	}, 0)
	allocs := -1.0
	runHooked(2, hookFunc(func(now simclock.Time, ctl *core.Controls) {
		if allocs >= 0 {
			return
		}
		tick := simclock.Time(0)
		allocs = testing.AllocsPerRun(200, func() {
			a.OnTick(tick, ctl)
			tick++
		})
		if ctl.SubmitDelay() != 1 || ctl.PriceMult() != 3 || len(a.pending) != 1 {
			t.Errorf("measured stretch missed its events: delay %v, price %v, %d pending",
				ctl.SubmitDelay(), ctl.PriceMult(), len(a.pending))
		}
	}))
	if allocs != 0 {
		t.Errorf("Agenda.OnTick allocates %v per tick, want 0", allocs)
	}
}
