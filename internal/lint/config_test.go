package lint

import "testing"

func TestMatchPath(t *testing.T) {
	cases := []struct {
		path, pattern string
		want          bool
	}{
		{"dynamollm/internal/core", "dynamollm/internal/core", true},
		{"dynamollm/internal/core", "dynamollm/internal/engine", false},
		{"dynamollm/internal/core", "dynamollm/internal/...", true},
		{"dynamollm/internal", "dynamollm/internal/...", true},
		{"dynamollm/internalx", "dynamollm/internal/...", false},
		{"dynamollm/internal/core/sub", "dynamollm/internal/core", false},
	}
	for _, c := range cases {
		if got := matchPath(c.path, c.pattern); got != c.want {
			t.Errorf("matchPath(%q, %q) = %v, want %v", c.path, c.pattern, got, c.want)
		}
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		comment, marker string
		reason          string
		ok              bool
	}{
		{"//dynamolint:wallclock pacer reads real time", DirWallclock, "pacer reads real time", true},
		{"//dynamolint:wallclock", DirWallclock, "", true},
		{"//dynamolint:wallclock: with colon", DirWallclock, "with colon", true},
		{"// dynamolint:wallclock leading space", DirWallclock, "leading space", true},
		{"//dynamolint:wallclocked not the marker", DirWallclock, "", false},
		{"//conserve:ignore scratch", DirConserveIgnore, "scratch", true},
		{"// plain comment", DirConserveIgnore, "", false},
		{"/*conserve:ignore tally*/", DirConserveIgnore, "tally", true},
	}
	for _, c := range cases {
		reason, ok := parseDirective(c.comment, c.marker)
		if ok != c.ok || reason != c.reason {
			t.Errorf("parseDirective(%q, %q) = (%q, %v), want (%q, %v)",
				c.comment, c.marker, reason, ok, c.reason, c.ok)
		}
	}
}

func TestDefaultConfigClassification(t *testing.T) {
	cfg := DefaultConfig()
	for _, det := range []string{"dynamollm/internal/core", "dynamollm/internal/engine", "dynamollm/internal/order"} {
		if !cfg.IsDeterministic(det) {
			t.Errorf("IsDeterministic(%q) = false, want true", det)
		}
		if cfg.IsWallclock(det) {
			t.Errorf("IsWallclock(%q) = true, want false", det)
		}
	}
	for _, wall := range []string{"dynamollm/internal/serve", "dynamollm/internal/simclock"} {
		if !cfg.IsWallclock(wall) {
			t.Errorf("IsWallclock(%q) = false, want true", wall)
		}
		if cfg.IsDeterministic(wall) {
			t.Errorf("IsDeterministic(%q) = true, want false", wall)
		}
	}
	// cmd/ and facade packages are intentionally unclassified.
	if cfg.IsDeterministic("dynamollm") || cfg.IsWallclock("dynamollm/cmd/dynamobench") {
		t.Error("unclassified packages must be neither deterministic nor wallclock")
	}
	if len(cfg.Conserve) == 0 {
		t.Fatal("DefaultConfig has no conserve targets")
	}
	for _, tgt := range cfg.Conserve {
		if tgt.Pkg == "" || tgt.Struct == "" || tgt.Invariant == "" {
			t.Errorf("incomplete conserve target %+v", tgt)
		}
	}
}
