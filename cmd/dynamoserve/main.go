// Command dynamoserve runs a simulated DynamoLLM cluster as a live
// serving control plane — the stdlib stand-in for the paper's gRPC
// controllers (§IV-E). A long-lived serve.Session advances the cluster
// simulation incrementally on a wall-clock-paced virtual clock (no
// re-simulation per query) while the server accepts live traffic:
//
//	GET  /stats    running cluster summary (energy, servers, SLO, lag)
//	GET  /config   the active system configuration
//	GET  /metrics  Prometheus text exposition (per-class TTFT/TBT)
//	POST /request  inject {"input_tokens":N,"output_tokens":M}; blocks
//	               for the completion (?wait=0 returns on acceptance;
//	               Accept: text/event-stream streams SSE token events)
//	POST /events   inject scenario runtime events relative to now, e.g.
//	               {"kind":"outage","servers":2} or
//	               {"kind":"price","price_mult":5,"duration_hours":2}
//
// The default -fidelity event runs one event-level continuous-batching
// engine per instance, so injected requests see real queueing, batching,
// and token-level latencies. SIGINT/SIGTERM drains in-flight work through
// the engines before exiting (-drain-limit bounds the drain).
//
// Robustness controls: -max-inflight and -max-lag shed injections with
// 429 + Retry-After when the server is overloaded; a per-request
// "deadline_s" field turns a blown wait into 408. With -state DIR every
// acked injection is WAL-synced before the ack and progress is
// checkpointed, so after a crash (even kill -9) `dynamoserve -state DIR
// -restore` rebuilds the session losing no acked request.
//
// Usage:
//
//	dynamoserve -addr :8080 -system dynamollm -peak 45 -speed 60 \
//	            -fidelity event -loop -state /tmp/dyn.state
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"dynamollm/internal/core"
	"dynamollm/internal/serve"
	"dynamollm/internal/simclock"
	"dynamollm/internal/trace"
	"dynamollm/internal/workload"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	addr := flag.String("addr", ":8080", "listen address")
	system := flag.String("system", "dynamollm", "control system (see /config)")
	peak := flag.Float64("peak", 45, "weekly-peak request rate")
	speed := flag.Float64("speed", 60, "virtual seconds per wall second")
	seed := flag.Uint64("seed", 42, "random seed")
	fidelity := core.FidelityEvent
	flag.TextVar(&fidelity, "fidelity", fidelity, "instance fidelity backend: fluid|event")
	loop := flag.Bool("loop", true, "replay the base trace when its horizon is reached")
	waitTimeout := flag.Duration("wait-timeout", serve.DefaultWaitTimeout, "max wall time a /request waits for its completion")
	maxInflight := flag.Int("max-inflight", 0, "shed /request injections (429) once this many are in flight (0 = unlimited)")
	maxLag := flag.Float64("max-lag", 0, "shed /request injections (429) while the simulation trails the pacer by more than this many virtual seconds (0 = unlimited)")
	drainLimit := flag.Float64("drain-limit", 0, "max virtual seconds Close simulates to drain stragglers on shutdown (0 = unlimited)")
	stateDir := flag.String("state", "", "state directory for crash durability (WAL + checkpoints); empty disables")
	restore := flag.Bool("restore", false, "resume the session recorded in -state (system/peak/speed/seed/fidelity/loop come from its checkpoint)")
	flag.Parse()

	if *restore && *stateDir == "" {
		fmt.Fprintf(os.Stderr, "dynamoserve: -restore requires -state\n\n")
		flag.Usage()
		return 2
	}
	if *restore {
		// The checkpoint is authoritative for everything that must match
		// the pre-crash session; the command-line values are ignored.
		ck, err := serve.ReadCheckpoint(*stateDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynamoserve: restore: %v\n", err)
			return 1
		}
		if err := fidelity.UnmarshalText([]byte(ck.Fidelity)); err != nil {
			fmt.Fprintf(os.Stderr, "dynamoserve: restore: checkpoint in %s: %v\n", *stateDir, err)
			return 1
		}
		*system, *seed, *speed, *loop = ck.System, ck.Seed, ck.Speed, ck.Loop
		if p, err := strconv.ParseFloat(ck.Meta["peak"], 64); err == nil && p > 0 {
			*peak = p
		}
	}

	opts, ok := core.SystemByName(*system)
	if !ok {
		fmt.Fprintf(os.Stderr, "dynamoserve: unknown system %q (want one of %v)\n\n", *system, core.SystemNames)
		flag.Usage()
		return 2
	}
	opts.Fidelity = fidelity
	opts.Seed = *seed
	base := trace.OpenSourceHour(*peak, *seed)
	// With -loop, the session wraps this curve at its replay period so
	// the predictor stays in phase with the replayed traffic.
	opts.WarmLoad = func(t simclock.Time, c workload.Class) float64 {
		return trace.ExpectedRate(trace.Conversation, *peak, t+trace.OpenSourceHourStart, c)
	}

	cfg := serve.Config{
		Name:          *system,
		Opts:          opts,
		Trace:         base,
		Speed:         *speed,
		Loop:          *loop,
		Logf:          log.Printf,
		MaxInflight:   *maxInflight,
		MaxLagSeconds: *maxLag,
		DrainLimit:    *drainLimit,
		StateDir:      *stateDir,
		Meta:          map[string]string{"peak": strconv.FormatFloat(*peak, 'g', -1, 64)},
	}
	open := serve.NewDurable
	if *restore {
		open = serve.Restore
	}
	session, err := open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynamoserve: %v\n", err)
		return 1
	}
	session.Start()

	srv := &http.Server{Addr: *addr, Handler: serve.NewHandler(session, *waitTimeout)}
	log.Printf("dynamoserve: %s on %s (x%.0f virtual time, %s fidelity, %d trace requests, loop=%v)",
		*system, *addr, *speed, fidelity, len(base), *loop)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		log.Printf("dynamoserve: %v", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: drain the simulation first — Close resolves
	// every blocked /request waiter (new injections are already rejected
	// as "session closed") — then let the handlers flush their responses
	// before the listener goes away.
	log.Printf("dynamoserve: shutting down, draining in-flight work")
	res, drained := session.Close()
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("dynamoserve: shutdown: %v", err)
	}
	log.Printf("dynamoserve: served %.0f virtual s: %d requests (%d squashed), %.1f kWh, SLO %.3f, drained %d in flight",
		res.Duration, res.Requests, res.Squashed, res.EnergyKWh(), res.SLOAttainment(), drained)
	return 0
}
