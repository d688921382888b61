#!/usr/bin/env bash
# Self-test for the dynamolint gate: inject four violations into
# internal/core, one at a time, and assert the linter rejects each with
# the right diagnostic:
#   - a time.Now() read in a sim-deterministic package (detrand);
#   - an unwaived range over a map in a sim-deterministic package
#     (detrand);
#   - an exported func whose only caller is a _test.go file (prodcaller);
#   - a field that non-test code assigns and only a test reads
#     (prodcaller).
# This guards the gate itself against silently rotting into a no-op
# (package-classification drift, analyzer registration typo, exit-code
# regression) — a lint suite that cannot fail is not a gate.
set -u
cd "$(dirname "$0")/.."

viol=internal/core/zz_lint_selftest_violation.go
maprange=internal/core/zz_lint_selftest_maprange.go
probe=internal/core/zz_lint_selftest_probe.go
probetest=internal/core/zz_lint_selftest_probe_test.go
state=internal/core/zz_lint_selftest_state.go
statetest=internal/core/zz_lint_selftest_state_test.go
trap 'rm -f "$viol" "$maprange" "$probe" "$probetest" "$state" "$statetest"' EXIT

# expect_reject <what> <diagnostic regex> <probe file>: dynamolint over
# internal/core must exit 1 with a matching diagnostic.
expect_reject() {
    local out status
    out="$(go run ./cmd/dynamolint ./internal/core 2>&1)"
    status=$?
    if [ "$status" -ne 1 ]; then
        echo "lint-selftest: FAIL: dynamolint exited $status on $1, want 1:"
        printf '%s\n' "$out"
        exit 1
    fi
    if ! printf '%s\n' "$out" | grep -q "$2"; then
        echo "lint-selftest: FAIL: dynamolint rejected $1 for the wrong reason:"
        printf '%s\n' "$out"
        exit 1
    fi
    echo "lint-selftest: OK — $1 rejected:"
    printf '%s\n' "$out" | grep "$3"
}

cat > "$viol" <<'GO'
package core

import "time"

// zzLintSelftestViolation exists only while scripts/lint_selftest.sh
// runs; dynamolint (detrand) must reject it.
func zzLintSelftestViolation() time.Time { return time.Now() }
GO
expect_reject "a time.Now() in internal/core" 'time\.Now in sim-deterministic package' zz_lint_selftest_violation
rm -f "$viol"

cat > "$maprange" <<'GO'
package core

// zzLintSelftestMapRange exists only while scripts/lint_selftest.sh
// runs; its map range carries no waiver, so dynamolint (detrand) must
// reject it.
func zzLintSelftestMapRange(m map[int]float64) (sum float64) {
	for _, v := range m {
		sum += v
	}
	return sum
}
GO
expect_reject "an unwaived map range in internal/core" \
    'map iteration order is random in sim-deterministic package' zz_lint_selftest_maprange
rm -f "$maprange"

cat > "$probe" <<'GO'
package core

// ZZLintSelftestProbe exists only while scripts/lint_selftest.sh runs;
// its only caller is a test, so dynamolint (prodcaller) must reject it.
func ZZLintSelftestProbe() int { return 1 }
GO
cat > "$probetest" <<'GO'
package core

import "testing"

func TestZZLintSelftestProbe(t *testing.T) { _ = ZZLintSelftestProbe() }
GO
expect_reject "an exported func with only a test caller" \
    'func ZZLintSelftestProbe has no non-test use.*(prodcaller)' zz_lint_selftest_probe
rm -f "$probe" "$probetest"

cat > "$state" <<'GO'
package core

// zzLintSelftestState exists only while scripts/lint_selftest.sh runs;
// non-test code only assigns its field, so dynamolint (prodcaller) must
// reject it.
type zzLintSelftestState struct{ written int }

var zzLintSelftest zzLintSelftestState

func init() { zzLintSelftest.written = 1 }
GO
cat > "$statetest" <<'GO'
package core

import "testing"

func TestZZLintSelftestState(t *testing.T) { _ = zzLintSelftest.written }
GO
expect_reject "a field that only a test reads" \
    'field zzLintSelftestState.written has no non-test use.*(prodcaller)' zz_lint_selftest_state
