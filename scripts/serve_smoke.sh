#!/usr/bin/env bash
# End-to-end smoke of the live serving control plane: build dynamoserve
# and dynamoload, start an event-fidelity server, drive it at 500 req/s,
# inject a live runtime event, scrape /metrics for the per-class latency
# summaries, then assert a clean drain on SIGINT. Run from the repository
# root; CI invokes it via `make serve-smoke`.
set -euo pipefail

addr=127.0.0.1:18080
bin="$(mktemp -d)"
log="$bin/serve.log"
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin/dynamoserve" ./cmd/dynamoserve
go build -o "$bin/dynamoload" ./cmd/dynamoload

"$bin/dynamoserve" -addr "$addr" -fidelity event -peak 5 -speed 30 >"$log" 2>&1 &
pid=$!

for _ in $(seq 100); do
	curl -sf "http://$addr/config" >/dev/null 2>&1 && break
	sleep 0.1
done
curl -sf "http://$addr/config" >/dev/null

# Open-loop load: 500 req/s of mixed classes for 3 s against the live
# event-fidelity cluster; dynamoload exits non-zero on failures.
"$bin/dynamoload" -url "http://$addr" -rps 500 -duration 3s -mix

# Live runtime event injection through the session's runtime-event agenda.
curl -sf -X POST "http://$addr/events" \
	-d '{"kind":"price","price_mult":3,"duration_hours":1}' >/dev/null
sleep 0.5
curl -sf "http://$addr/stats" | grep -q '"price_mult":3'

# Per-class TTFT/TBT summaries come straight from the event engines.
metrics="$(curl -sf "http://$addr/metrics")"
echo "$metrics" | grep -q 'dynamollm_class_ttft_seconds{class='
echo "$metrics" | grep -q 'dynamollm_requests_total'

# Clean drain: SIGINT must exit 0 after draining in-flight work.
kill -INT "$pid"
wait "$pid"
grep -q 'drained' "$log"
pid=""
echo "serve-smoke OK"
