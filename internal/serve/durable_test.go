package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dynamollm/internal/core"
	"dynamollm/internal/scenario"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

// Hand-made WAL files for the decoder tests and fuzz seeds: a crash
// mid-append (a torn, unacked final line) and real corruption (a bad line
// with more entries after it).
const (
	walTornTail       = `{"tag":1,"at":5,"in":128,"out":16}` + "\n" + `{"tag":2,"at":9,"in":2`
	walMidFileGarbage = `{"tag":1,"at":5,"in":128,"out":16}` + "\n" + "garbage\n" + `{"tag":3,"at":9,"in":128,"out":16}` + "\n"
	// walWithEvents interleaves requests with /events posts: a price
	// window, an expanded crash and repair, and an empty post.
	walWithEvents = `{"tag":1,"at":5,"in":128,"out":16}` + "\n" +
		`{"tag":0,"at":7.5,"in":0,"out":0,"events":[{"kind":"price","at_hours":0,"duration_hours":1,"price_mult":3}]}` + "\n" +
		`{"tag":2,"at":9,"in":64,"out":8}` + "\n" +
		`{"tag":0,"at":12,"in":0,"out":0,"events":[{"kind":"outage","at_hours":0.25,"servers":1},{"kind":"recovery","at_hours":1.5,"servers":1}]}` + "\n" +
		`{"tag":0,"at":15,"in":0,"out":0,"events":[]}` + "\n"
)

// durableConfig builds a durable session config on a fake clock with a
// small looping base trace.
func durableConfig(t testing.TB, dir string, clock *fakeClock) Config {
	t.Helper()
	opts := singlePool()
	opts.Seed = 7
	opts.Fidelity = core.FidelityEvent
	return Config{
		Name:      "singlepool",
		Opts:      opts,
		Trace:     testTrace(20, 5),
		Speed:     10,
		Loop:      true,
		Repo:      sharedRepo(),
		WallClock: clock.now,
		Logf:      t.Logf,
		StateDir:  dir,
		Meta:      map[string]string{"peak": "45"},
	}
}

// TestDurableRestore is the crash-recovery contract: kill a durable
// session without any shutdown (the process just vanishes — only the WAL
// and checkpoint survive), restore from the state directory, and the
// restored session must resume at the checkpointed virtual instant,
// serve every acked injection, and continue the tag sequence.
func TestDurableRestore(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	cfg := durableConfig(t, dir, clock)

	s, err := NewDurable(cfg)
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	// Serve 30 virtual seconds, injecting along the way.
	var tags []uint64
	for i := 0; i < 3; i++ {
		clock.advance(time.Second) // 10 virtual s
		s.Advance()
		acc, _, err := s.Inject(128, 16, false)
		if err != nil {
			t.Fatalf("inject %d: %v", i, err)
		}
		tags = append(tags, acc.Tag)
	}
	preBoundary := s.Stats().VirtualSeconds
	s.mu.Lock()
	if err := s.checkpointLocked(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	s.mu.Unlock()
	// One more acked injection after the final checkpoint: it exists only
	// in the WAL and must survive anyway.
	acc, _, err := s.Inject(256, 32, false)
	if err != nil {
		t.Fatalf("post-checkpoint inject: %v", err)
	}
	tags = append(tags, acc.Tag)
	// Crash: no Close, no drain. Drop the session on the floor.

	restoreClock := newFakeClock()
	cfg2 := durableConfig(t, dir, restoreClock)
	r, err := Restore(cfg2)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	st := r.Stats()
	if st.VirtualSeconds != preBoundary {
		t.Errorf("restored at virtual %v, want checkpointed boundary %v", st.VirtualSeconds, preBoundary)
	}
	if st.RestoredAtS != preBoundary {
		t.Errorf("RestoredAtS = %v, want %v", st.RestoredAtS, preBoundary)
	}
	// The next tag continues the pre-crash sequence even though the last
	// ack never made a checkpoint.
	acc2, _, err := r.Inject(128, 16, false)
	if err != nil {
		t.Fatalf("post-restore inject: %v", err)
	}
	if want := tags[len(tags)-1] + 1; acc2.Tag != want {
		t.Errorf("post-restore tag = %d, want %d", acc2.Tag, want)
	}
	// Run well past every injected arrival: all acked requests (including
	// the post-checkpoint one) must be served.
	restoreClock.advance(10 * time.Second)
	r.Advance()
	res, _ := r.Close()
	want := len(cfg2.Trace) + len(tags) + 1
	if res.Requests < want {
		t.Errorf("restored session routed %d requests, want >= %d (all acked injections replayed)", res.Requests, want)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Errorf("after restore: %v", err)
	}
}

// TestDurableRestoreReplaysEvents: acked /events posts survive a crash
// like acked requests. A price window posted before the final checkpoint
// is still in force after Restore, an SLO window posted after it (in the
// WAL only) opens on schedule, and the post count that salts the
// fault-expansion seed continues where the crashed session left it.
func TestDurableRestoreReplaysEvents(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	s, err := NewDurable(durableConfig(t, dir, clock))
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	clock.advance(time.Second) // 10 virtual s
	s.Advance()
	if _, err := s.InjectEvents([]scenario.Event{{Kind: scenario.Price, DurationHours: 1, PriceMult: 3}}); err != nil {
		t.Fatalf("price post: %v", err)
	}
	clock.advance(time.Second)
	if got := s.Stats().PriceMult; got != 3 {
		t.Fatalf("pre-crash price multiplier %v, want 3", got)
	}
	s.mu.Lock()
	if err := s.checkpointLocked(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	s.mu.Unlock()
	if _, err := s.InjectEvents([]scenario.Event{{Kind: scenario.SLO, AtHours: 10.0 / 3600, DurationHours: 1, SLOFactor: 0.5}}); err != nil {
		t.Fatalf("slo post: %v", err)
	}
	// Crash: no Close, no drain.

	restoreClock := newFakeClock()
	r, err := Restore(durableConfig(t, dir, restoreClock))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer r.wal.close()
	if got := r.Stats().PriceMult; got != 3 {
		t.Errorf("restored price multiplier %v, want 3", got)
	}
	if r.eventsPosted != 2 {
		t.Errorf("restored eventsPosted %d, want 2", r.eventsPosted)
	}
	restoreClock.advance(2 * time.Second) // 20 virtual s: past the SLO window's start
	if got := r.Stats().SLOFactor; got != 0.5 {
		t.Errorf("restored SLO factor %v, want 0.5 from the post-checkpoint window", got)
	}
}

// TestEventsWALFailure: a post that cannot be journaled is not acked —
// /events answers 503, not 400 — and does not count toward the seed salt.
func TestEventsWALFailure(t *testing.T) {
	s, err := NewDurable(durableConfig(t, t.TempDir(), newFakeClock()))
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	s.wal.close() // every later append fails
	w := do(NewHandler(s, time.Second), "POST", "/events", `{"kind":"price","duration_hours":1,"price_mult":2}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("/events with a dead WAL: status %d, want 503", w.Code)
	}
	if s.eventsPosted != 0 {
		t.Errorf("eventsPosted %d after a refused post, want 0", s.eventsPosted)
	}
}

// TestDurableRestoreMismatch: a Restore whose configuration disagrees
// with the checkpoint in system, seed, speed, resolved fidelity or loop
// must fail and name the field, instead of replaying the WAL into a
// different cluster.
func TestDurableRestoreMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurable(durableConfig(t, dir, newFakeClock()))
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	s.wal.close()
	for _, c := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"system", func(c *Config) { c.Name = "multipool" }},
		{"seed", func(c *Config) { c.Opts.Seed++ }},
		{"speed", func(c *Config) { c.Speed *= 2 }},
		{"fidelity", func(c *Config) { c.Opts.Fidelity = core.FidelityFluid }},
		{"loop", func(c *Config) { c.Loop = false }},
	} {
		cfg := durableConfig(t, dir, newFakeClock())
		c.mutate(&cfg)
		_, err := Restore(cfg)
		if err == nil || !strings.Contains(err.Error(), "checkpoint "+c.field+" ") {
			t.Errorf("%s mismatch: Restore error %v, want one naming %q", c.field, err, c.field)
		}
	}
	r, err := Restore(durableConfig(t, dir, newFakeClock()))
	if err != nil {
		t.Fatalf("matching Restore: %v", err)
	}
	r.wal.close()
}

// TestDurableDeterministicReplay pins that restoring twice from the same
// state directory yields identical sessions: same boundary, same request
// counts after the same advance.
func TestDurableDeterministicReplay(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	s, err := NewDurable(durableConfig(t, dir, clock))
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	clock.advance(2 * time.Second)
	s.Advance()
	if _, _, err := s.Inject(512, 64, false); err != nil {
		t.Fatalf("inject: %v", err)
	}
	s.mu.Lock()
	if err := s.checkpointLocked(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	s.mu.Unlock()

	stats := make([]Stats, 2)
	for i := range stats {
		c := newFakeClock()
		r, err := Restore(durableConfig(t, dir, c))
		if err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		c.advance(3 * time.Second)
		r.Advance()
		stats[i] = r.Stats()
		r.wal.close()
	}
	if stats[0] != stats[1] {
		t.Errorf("restores diverged:\n%+v\n%+v", stats[0], stats[1])
	}
}

// TestWALTornTail verifies a torn final WAL line (crash mid-write,
// pre-ack) is dropped silently while earlier entries survive.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), []byte(walTornTail), 0o644); err != nil {
		t.Fatal(err)
	}
	wal, err := readWAL(dir)
	if err != nil {
		t.Fatalf("readWAL: %v", err)
	}
	if len(wal.requests) != 1 || wal.requests[0].Tag != 1 || wal.maxTag != 1 {
		t.Errorf("got %d entries (maxTag %d), want the 1 complete entry", len(wal.requests), wal.maxTag)
	}
}

// TestWALMidFileCorruption verifies a malformed line that is NOT the tail
// is treated as corruption, not a torn write.
func TestWALMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), []byte(walMidFileGarbage), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readWAL(dir); err == nil {
		t.Error("readWAL accepted mid-file corruption")
	}
}

// TestAdmissionControl pins the 429 paths: an inflight cap and a lag cap
// both shed with OverloadError and count in Stats.AdmissionShed.
func TestAdmissionControl(t *testing.T) {
	clock := newFakeClock()
	opts := singlePool()
	opts.Seed = 7
	opts.Fidelity = core.FidelityEvent
	s := New(Config{
		Name:        "singlepool",
		Opts:        opts,
		Trace:       testTrace(5, 5),
		Speed:       10,
		Repo:        sharedRepo(),
		WallClock:   clock.now,
		Logf:        t.Logf,
		MaxInflight: 1,
	})
	if _, _, err := s.Inject(128, 16, true); err != nil {
		t.Fatalf("first inject: %v", err)
	}
	_, _, err := s.Inject(128, 16, true)
	oe, ok := err.(*OverloadError)
	if !ok {
		t.Fatalf("second inject: got %v, want OverloadError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want positive", oe.RetryAfter)
	}
	if got := s.Stats().AdmissionShed; got != 1 {
		t.Errorf("AdmissionShed = %d, want 1", got)
	}

	// Lag-based shedding: jump the wall clock far ahead without advancing.
	s2 := New(Config{
		Name:          "singlepool",
		Opts:          opts,
		Trace:         testTrace(5, 5),
		Speed:         1000,
		Repo:          sharedRepo(),
		WallClock:     clock.now,
		Logf:          t.Logf,
		MaxLagSeconds: 30,
	})
	clock.advance(time.Second) // 1000 virtual s of lag
	if _, _, err := s2.Inject(128, 16, false); err == nil {
		t.Fatal("lagging session admitted an injection, want OverloadError")
	} else if _, ok := err.(*OverloadError); !ok {
		t.Fatalf("got %v, want OverloadError", err)
	}
}

// encodeWAL renders entries as the canonical WAL lines walFile.append
// writes.
func encodeWAL(t *testing.T, entries []walEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestWALEventPosts: event lines decode into posts in post order, apart
// from the requests, and an event line that /events itself would refuse
// is corruption even as the final line.
func TestWALEventPosts(t *testing.T) {
	wal, err := decodeWAL(strings.NewReader(walWithEvents), "test")
	if err != nil {
		t.Fatalf("decodeWAL: %v", err)
	}
	if len(wal.requests) != 2 || wal.maxTag != 2 {
		t.Errorf("got %d requests (maxTag %d), want 2 (maxTag 2)", len(wal.requests), wal.maxTag)
	}
	if len(wal.posts) != 3 || wal.posts[0].at != 7.5 || len(wal.posts[1].events) != 2 || len(wal.posts[2].events) != 0 {
		t.Errorf("posts = %+v, want price@7.5, outage+recovery@12, empty@15", wal.posts)
	}
	for _, bad := range []string{
		`{"at":1,"events":[{"kind":"spike","rate_mult":2,"duration_hours":1}]}`, // trace-level kind
		`{"at":1,"events":[{"kind":"price","at_hours":-1,"duration_hours":1,"price_mult":2}]}`,
		`{"at":-1,"events":[]}`,
	} {
		if _, err := decodeWAL(strings.NewReader(bad+"\n"), "test"); err == nil {
			t.Errorf("decodeWAL accepted %s", bad)
		}
	}
}

// encodeLog renders a decoded WAL as canonical lines: every request, then
// every event post, each the way walFile writes it.
func encodeLog(t *testing.T, wal walLog) []byte {
	t.Helper()
	var lines []walEntry
	for _, e := range wal.requests {
		lines = append(lines, walEntry{Tag: e.Tag, At: float64(e.At), In: e.InputTokens, Out: e.OutputTokens})
	}
	for _, p := range wal.posts {
		events := p.events
		lines = append(lines, walEntry{At: float64(p.at), Events: &events})
	}
	return encodeWAL(t, lines)
}

// FuzzReadWAL: any byte string either decodes or errors — never panics.
// Whatever decodes re-encodes to canonical lines that decode back to the
// same requests and event posts (also with a torn tail appended), whose
// own encoding is a fixed point, and a garbage line followed by more
// entries is always corruption.
func FuzzReadWAL(f *testing.F) {
	f.Add([]byte(walTornTail))
	f.Add([]byte(walMidFileGarbage))
	f.Add([]byte(walWithEvents))
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"tag":18446744073709551615,"at":1e308,"in":-1,"out":0}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		wal, err := decodeWAL(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		var wantMax uint64
		for _, e := range wal.requests {
			wantMax = max(wantMax, e.Tag)
		}
		if wal.maxTag != wantMax {
			t.Fatalf("maxTag %d, entries say %d", wal.maxTag, wantMax)
		}
		enc := encodeLog(t, wal)
		for _, tail := range []string{"", `{"tag":7,"at":1`} {
			got, err := decodeWAL(bytes.NewReader(append(enc[:len(enc):len(enc)], tail...)), "fuzz")
			if err != nil {
				t.Fatalf("canonical WAL + %q rejected: %v", tail, err)
			}
			if !reflect.DeepEqual(got.requests, wal.requests) || got.maxTag != wal.maxTag || len(got.posts) != len(wal.posts) {
				t.Fatalf("canonical WAL + %q decoded to %+v, want %+v", tail, got, wal)
			}
			if again := encodeLog(t, got); !bytes.Equal(again, enc) {
				t.Fatalf("canonical encoding is not a fixed point:\n%s\n%s", enc, again)
			}
		}
		corrupt := append(enc[:len(enc):len(enc)], "garbage\n"+`{"tag":1,"at":0,"in":1,"out":1}`+"\n"...)
		if _, err := decodeWAL(bytes.NewReader(corrupt), "fuzz"); err == nil {
			t.Fatal("mid-file garbage accepted")
		}
	})
}

// FuzzReadCheckpoint: any byte string either decodes or errors — never
// panics — and whatever decodes is the current version, has a reachable
// boundary, names a known system and fidelity, and survives a write/read round trip unchanged.
func FuzzReadCheckpoint(f *testing.F) {
	valid, err := json.MarshalIndent(CheckpointFile{
		Version: checkpointVersion, System: "dynamollm", Seed: 42, Speed: 60,
		Fidelity: "event", Loop: true, BoundaryVirtualS: 600, NextTag: 17, Loops: 1,
		Meta: map[string]string{"peak": "45"},
	}, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn write
	f.Add(bytes.Replace(valid, []byte(`"version": 1`), []byte(`"version": 2`), 1))
	f.Add(bytes.Replace(valid, []byte(`600`), []byte(`-600`), 1))
	f.Add([]byte("garbage"))
	f.Add([]byte("null"))
	f.Add(bytes.Replace(valid, []byte(`"dynamollm"`), []byte(`"warpdrive"`), 1)) // unknown system
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		_, known := core.SystemByName(ck.System)
		if ck.Version != checkpointVersion || ck.BoundaryVirtualS < 0 || !known ||
			!slices.Contains(core.FidelityNames, ck.Fidelity) {
			t.Fatalf("accepted checkpoint %+v", ck)
		}
		dir := t.TempDir()
		if err := writeCheckpoint(dir, *ck); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCheckpoint(dir)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(ck.Meta) == 0 {
			ck.Meta = nil // omitempty: an empty map is written as absent
		}
		if !reflect.DeepEqual(back, ck) {
			t.Fatalf("round trip changed the checkpoint:\n got %+v\nwant %+v", back, ck)
		}
	})
}

// BenchmarkRestore prices the one recovery path: rebuilding a killed
// durable session re-simulates from virtual zero to the checkpointed
// boundary with the WAL re-injected, so its cost grows linearly with the
// session's virtual uptime. restore-s/virtual-h normalizes by uptime so
// the rungs compare directly. The session is dynamoserve's default one
// (dynamollm over the open-source hour at a 45 req/s peak, looping), and
// one acked injection per virtual minute keeps the WAL replay in the
// measured path.
func BenchmarkRestore(b *testing.B) {
	const peak, seed = 45, 42
	for _, f := range []core.Fidelity{core.FidelityFluid, core.FidelityEvent} {
		for _, uptime := range []time.Duration{10 * time.Minute, time.Hour} {
			b.Run(fmt.Sprintf("%s/uptime=%dm", f, int(uptime.Minutes())), func(b *testing.B) {
				config := func(dir string, clock *fakeClock) Config {
					cfg := durableConfig(b, dir, clock)
					cfg.Name = "dynamollm"
					cfg.Opts, _ = core.SystemByName(cfg.Name)
					cfg.Opts.Seed = seed
					cfg.Opts.Fidelity = f
					cfg.Opts.WarmLoad = func(t simclock.Time, c workload.Class) float64 {
						return trace.ExpectedRate(trace.Conversation, peak, t+trace.OpenSourceHourStart, c)
					}
					cfg.Trace = trace.OpenSourceHour(peak, seed)
					cfg.Speed = 60
					cfg.Logf = nil
					return cfg
				}
				dir := b.TempDir()
				clock := newFakeClock()
				cfg := config(dir, clock)
				s, err := NewDurable(cfg)
				if err != nil {
					b.Fatal(err)
				}
				wallPerMinute := time.Duration(float64(time.Minute) / cfg.Speed)
				for v := time.Duration(0); v < uptime; v += time.Minute {
					clock.advance(wallPerMinute)
					s.Advance()
					if _, _, err := s.Inject(128, 16, false); err != nil {
						b.Fatal(err)
					}
				}
				s.mu.Lock()
				err = s.checkpointLocked()
				s.mu.Unlock()
				if err != nil {
					b.Fatal(err)
				}
				s.wal.close() // crash: only the state directory survives

				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := Restore(config(dir, newFakeClock()))
					if err != nil {
						b.Fatal(err)
					}
					r.wal.close()
				}
				b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/uptime.Hours(), "restore-s/virtual-h")
			})
		}
	}
}
