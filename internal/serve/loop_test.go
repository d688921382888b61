package serve

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"dynamollm/internal/core"
	"dynamollm/internal/trace"
)

// loopTrace is a base trace whose horizon is not a whole number (10
// arrivals 7.3123 s apart, ending at 73.123 s), so a loop offset summed
// loop by loop rounds differently from one computed from the loop index.
func loopTrace() trace.Trace { return testTrace(10, 7.3123) }

// tickWall is one 5 s tick of wall time at speed 10, the speed of both
// tests' sessions.
const tickWall = 500 * time.Millisecond

// dump renders what two sessions must agree on: the /stats document and
// the /metrics exposition.
func dump(t *testing.T, st Stats, s *Session) (string, string) {
	t.Helper()
	js, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var m bytes.Buffer
	s.WriteMetrics(&m)
	return string(js), m.String()
}

// TestSessionLoopAdvanceIndependent: how a looping session is advanced
// never moves an arrival. A session advanced one tick per call and one
// advanced in a single call serve the same 40-odd loops of a base trace
// with a non-integer horizon, with byte-identical /stats and /metrics.
func TestSessionLoopAdvanceIndependent(t *testing.T) {
	const ticks = 600
	perTick, clockA := testSession(t, core.FidelityEvent, loopTrace(), true, 10)
	oneCall, clockB := testSession(t, core.FidelityEvent, loopTrace(), true, 10)
	for i := 0; i < ticks; i++ {
		clockA.advance(tickWall)
		perTick.Advance()
	}
	clockB.advance(ticks * tickWall)
	oneCall.Advance()

	stA, stB := perTick.Stats(), oneCall.Stats()
	if stA.TraceLoops < 40 {
		t.Fatalf("trace_loops = %d after %d ticks, want >= 40", stA.TraceLoops, ticks)
	}
	jsA, metA := dump(t, stA, perTick)
	jsB, metB := dump(t, stB, oneCall)
	if jsA != jsB {
		t.Errorf("/stats differs:\n per tick %s\n one call %s", jsA, jsB)
	}
	if metA != metB {
		t.Errorf("/metrics differs:\n per tick:\n%s\n one call:\n%s", metA, metB)
	}
}

// TestDurableRestoreLoopOffsets: a looping session restored after 25-odd
// loops serves the base trace at the offsets the uninterrupted session
// does. After both advance the same interval, their /stats agree, the
// restore and checkpoint fields aside.
func TestDurableRestoreLoopOffsets(t *testing.T) {
	clock := newFakeClock()
	cfg := durableConfig(t, t.TempDir(), clock)
	cfg.Trace = loopTrace()
	s, err := NewDurable(cfg)
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	for i := 0; i < 400; i++ {
		clock.advance(tickWall)
		s.Advance()
		if i == 150 {
			if _, _, err := s.Inject(512, 64, false); err != nil {
				t.Fatalf("inject: %v", err)
			}
		}
	}
	s.mu.Lock()
	if err := s.checkpointLocked(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	s.mu.Unlock()

	restoreClock := newFakeClock()
	rcfg := cfg
	rcfg.WallClock = restoreClock.now
	r, err := Restore(rcfg)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r.wal.close()
	defer s.wal.close()
	clock.advance(40 * tickWall)
	restoreClock.advance(40 * tickWall)

	want, got := s.Stats(), r.Stats()
	if want.TraceLoops < 25 {
		t.Fatalf("trace_loops = %d, want >= 25", want.TraceLoops)
	}
	if got.RestoredAtS == 0 {
		t.Error("restored session reports no restore instant")
	}
	want.LastCheckpointS = 0
	got.RestoredAtS, got.LastCheckpointS = 0, 0
	jsWant, _ := json.Marshal(want)
	jsGot, _ := json.Marshal(got)
	if string(jsWant) != string(jsGot) {
		t.Errorf("restored /stats differs from the uninterrupted session's:\n uninterrupted %s\n restored      %s", jsWant, jsGot)
	}
}
