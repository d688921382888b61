package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dynamollm/internal/core"
	"dynamollm/internal/scenario"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
)

// Crash durability. The simulation itself is deterministic: given the base
// trace, the options, and the set of injected arrivals, replaying from
// virtual zero reproduces the exact pre-crash state. So the durable record
// is small — a write-ahead log of every acked injection and every acked
// /events post (synced before the ack leaves the process) plus a periodic
// checkpoint of the session's progress marker (how far virtual time got,
// the next tag). Restore rebuilds the session from its configuration,
// re-injects the WAL's requests at their original virtual instants,
// re-schedules its event posts at their original anchors, fast-forwards
// to the checkpointed boundary, and resumes the pacer from there. Requests
// and events acked after the last checkpoint are still in the WAL and
// simply land in the session's future.

// CheckpointFile is the on-disk checkpoint: enough to rebuild an identical
// session (via Meta, the caller's own flags) plus the progress marker the
// replay fast-forwards to.
type CheckpointFile struct {
	Version          int               `json:"version"`
	System           string            `json:"system"`
	Seed             uint64            `json:"seed"`
	Speed            float64           `json:"speed"`
	Fidelity         string            `json:"fidelity"`
	Loop             bool              `json:"loop"`
	BoundaryVirtualS float64           `json:"boundary_virtual_s"`
	NextTag          uint64            `json:"next_tag"`
	Loops            int               `json:"trace_loops"`
	Meta             map[string]string `json:"meta,omitempty"`
}

const checkpointVersion = 1

func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.json") }
func walPath(dir string) string        { return filepath.Join(dir, "wal.jsonl") }

// ReadCheckpoint loads the checkpoint from a state directory.
// cmd/dynamoserve reads it before Restore to reconstruct the session
// configuration (system, seed, speed, fidelity, loop, and its own Meta).
func ReadCheckpoint(dir string) (*CheckpointFile, error) {
	data, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		return nil, err
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", checkpointPath(dir), err)
	}
	return ck, nil
}

// decodeCheckpoint parses checkpoint bytes, rejecting another format
// version, a boundary no session can reach (negative virtual time), and
// a system or fidelity this build does not know.
func decodeCheckpoint(data []byte) (*CheckpointFile, error) {
	var ck CheckpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, err
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("version %d, want %d", ck.Version, checkpointVersion)
	}
	if ck.BoundaryVirtualS < 0 {
		return nil, fmt.Errorf("negative boundary %v", ck.BoundaryVirtualS)
	}
	if _, ok := core.SystemByName(ck.System); !ok {
		return nil, fmt.Errorf("unknown system %q (want one of %s)", ck.System, strings.Join(core.SystemNames, "|"))
	}
	var fid core.Fidelity
	if err := fid.UnmarshalText([]byte(ck.Fidelity)); err != nil {
		return nil, err
	}
	return &ck, nil
}

// writeCheckpoint atomically replaces the checkpoint: write a temp file,
// sync it, then rename over the old one, so a crash mid-write leaves the
// previous checkpoint intact.
func writeCheckpoint(dir string, ck CheckpointFile) error {
	data, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := checkpointPath(dir) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, checkpointPath(dir))
}

// identity is the part of a checkpoint that pins which session it
// records: the format version plus the configuration a replay must
// match.
func (s *Session) identity() CheckpointFile {
	return CheckpointFile{
		Version:  checkpointVersion,
		System:   s.cfg.Name,
		Seed:     s.cfg.Opts.Seed,
		Speed:    s.cfg.Speed,
		Fidelity: s.live.Options().Fidelity.String(),
		Loop:     s.cfg.Loop,
	}
}

// matchCheckpoint reports the first identity field on which ck disagrees
// with this session. Replaying the WAL into a differently configured
// cluster would rebuild the wrong session without any error.
func (s *Session) matchCheckpoint(ck *CheckpointFile) error {
	id := s.identity()
	for _, f := range []struct {
		name     string
		ck, have any
	}{
		{"system", ck.System, id.System},
		{"seed", ck.Seed, id.Seed},
		{"speed", ck.Speed, id.Speed},
		{"fidelity", ck.Fidelity, id.Fidelity},
		{"loop", ck.Loop, id.Loop},
	} {
		if f.ck != f.have {
			return fmt.Errorf("checkpoint %s is %v, config has %v", f.name, f.ck, f.have)
		}
	}
	return nil
}

// checkpointLocked writes the current progress marker. Caller holds mu.
func (s *Session) checkpointLocked() error {
	ck := s.identity()
	ck.BoundaryVirtualS = float64(s.live.Boundary())
	ck.NextTag = s.nextTag
	ck.Loops = s.live.Loops()
	ck.Meta = s.cfg.Meta
	if err := writeCheckpoint(s.cfg.StateDir, ck); err != nil {
		return err
	}
	s.lastCkptAt = s.live.Boundary()
	return nil
}

// --- Write-ahead log ---------------------------------------------------------

// walEntry is one WAL line: an acked injection, or — when Events is
// present — an acked /events post whose events are anchored at At
// (request lines omit the field, so WALs written before event posts were
// journaled still decode). The pointer distinguishes an empty post from
// a request line.
type walEntry struct {
	Tag    uint64            `json:"tag"`
	At     float64           `json:"at"`
	In     int               `json:"in"`
	Out    int               `json:"out"`
	Events *[]scenario.Event `json:"events,omitempty"`
}

// eventPost is one acked /events call as journaled: its runtime events,
// already expanded (faults drawn into concrete crashes and repairs, so a
// replay never re-draws them), and the virtual time they are anchored at.
type eventPost struct {
	at     simclock.Time
	events []scenario.Event
}

// walLog is a decoded WAL.
type walLog struct {
	requests []trace.Entry // acked injections, in ack order
	posts    []eventPost   // acked /events posts, in post order
	maxTag   uint64        // highest request tag
}

// walFile appends acked injections and event posts; every append is
// synced before it returns, because Inject and InjectEvents ack only after
// the entry is durable.
type walFile struct {
	f *os.File
}

func openWAL(dir string, truncate bool) (*walFile, error) {
	flags := os.O_WRONLY | os.O_CREATE | os.O_APPEND
	if truncate {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(walPath(dir), flags, 0o644)
	if err != nil {
		return nil, err
	}
	return &walFile{f: f}, nil
}

func (w *walFile) append(e trace.Entry) error {
	return w.write(walEntry{Tag: e.Tag, At: float64(e.At), In: e.InputTokens, Out: e.OutputTokens})
}

// appendEvents journals one /events post: its expanded events, anchored
// at the virtual time at.
func (w *walFile) appendEvents(at simclock.Time, events []scenario.Event) error {
	if events == nil {
		events = []scenario.Event{}
	}
	return w.write(walEntry{At: float64(at), Events: &events})
}

func (w *walFile) write(e walEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := w.f.Write(data); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *walFile) close() {
	w.f.Close()
}

// readWAL parses the log back into requests and event posts. A torn final
// line (the process died mid-write, before the ack) is skipped: the client
// never got an ack for it, so dropping it is correct. A malformed line
// anywhere else is real corruption and errors out.
func readWAL(dir string) (walLog, error) {
	f, err := os.Open(walPath(dir))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return walLog{}, nil
		}
		return walLog{}, err
	}
	defer f.Close()
	return decodeWAL(f, walPath(dir))
}

// decodeWAL parses WAL lines from r (name labels errors) under readWAL's
// torn-tail rule. An event post must pass the same checks /events applies
// and be anchored at a virtual time >= 0.
func decodeWAL(r io.Reader, name string) (walLog, error) {
	var (
		out     walLog
		badLine error
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if badLine != nil {
			// A parse failure followed by more lines is corruption, not a
			// torn tail.
			return walLog{}, badLine
		}
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e walEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			badLine = fmt.Errorf("wal %s line %d: %w", name, line, err)
			continue
		}
		if e.Events != nil {
			// A complete line that /events would refuse is corruption,
			// never a torn tail.
			if err := validateLive(*e.Events); err != nil {
				return walLog{}, fmt.Errorf("wal %s line %d: %w", name, line, err)
			}
			if e.At < 0 {
				return walLog{}, fmt.Errorf("wal %s line %d: event post anchored at negative time %v", name, line, e.At)
			}
			out.posts = append(out.posts, eventPost{at: simclock.Time(e.At), events: *e.Events})
			continue
		}
		out.requests = append(out.requests, trace.Entry{
			At:           simclock.Time(e.At),
			Tag:          e.Tag,
			InputTokens:  e.In,
			OutputTokens: e.Out,
		})
		out.maxTag = max(out.maxTag, e.Tag)
	}
	if err := sc.Err(); err != nil {
		return walLog{}, err
	}
	return out, nil
}

// --- Constructors ------------------------------------------------------------

// NewDurable builds a fresh session with crash durability when
// Config.StateDir is set: the WAL is truncated and an initial checkpoint
// written, so the directory always describes this session. An existing
// checkpoint in the directory is overwritten — use Restore to resume it
// instead.
func NewDurable(cfg Config) (*Session, error) {
	s := New(cfg)
	if cfg.StateDir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	if _, err := os.Stat(checkpointPath(cfg.StateDir)); err == nil {
		s.logf("serve: state dir %s holds a previous session; starting fresh (run with restore to resume it)", cfg.StateDir)
	}
	w, err := openWAL(cfg.StateDir, true)
	if err != nil {
		return nil, fmt.Errorf("serve: wal: %w", err)
	}
	s.wal = w
	s.mu.Lock()
	err = s.checkpointLocked()
	s.mu.Unlock()
	if err != nil {
		w.close()
		return nil, fmt.Errorf("serve: initial checkpoint: %w", err)
	}
	return s, nil
}

// Restore rebuilds a killed session from its state directory. cfg must
// describe the same session the checkpoint was taken from (cmd/dynamoserve
// reconstructs it from ReadCheckpoint); a system, seed, speed, resolved
// fidelity or loop setting that disagrees is an error. The simulation is
// deterministic, so replaying the same base trace plus the WAL's
// injections at their original virtual instants and its event posts at
// their original anchors, then fast-forwarding to the checkpointed
// boundary, reproduces the pre-crash state exactly. Requests and events
// acked after the final checkpoint sit in the restored session's near
// future and take effect normally — no acked request or event is lost. Their original waiters are
// gone with the old process, so their completions resolve without
// delivery.
func Restore(cfg Config) (*Session, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("serve: Restore requires Config.StateDir")
	}
	ck, err := ReadCheckpoint(cfg.StateDir)
	if err != nil {
		return nil, fmt.Errorf("serve: restore: %w", err)
	}
	wal, err := readWAL(cfg.StateDir)
	if err != nil {
		return nil, fmt.Errorf("serve: restore: %w", err)
	}
	s := New(cfg)
	if err := s.matchCheckpoint(ck); err != nil {
		return nil, fmt.Errorf("serve: restore: %w", err)
	}
	resume := simclock.Time(ck.BoundaryVirtualS)
	s.pacer = simclock.NewPacerAt(s.cfg.Speed, resume, cfg.WallClock)
	s.nextTag = max(ck.NextTag, wal.maxTag)
	s.mu.Lock()
	for _, p := range wal.posts {
		s.agenda.Add(p.events, p.at)
	}
	s.eventsPosted = uint64(len(wal.posts))
	for _, e := range wal.requests {
		at, err := s.live.Inject(e)
		if err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("serve: restore: replay tag %d: %w", e.Tag, err)
		}
		if at > s.lastInjectedAt {
			s.lastInjectedAt = at
		}
	}
	s.live.AdvanceTo(resume)
	s.restoredAt = resume
	s.lastCkptAt = resume
	s.mu.Unlock()
	w, err := openWAL(cfg.StateDir, false)
	if err != nil {
		return nil, fmt.Errorf("serve: restore: wal: %w", err)
	}
	s.wal = w
	s.logf("serve: restored at virtual t=%.0fs (%d WAL request(s) replayed, %d event post(s), next tag %d)",
		float64(resume), len(wal.requests), len(wal.posts), s.nextTag+1)
	return s, nil
}
