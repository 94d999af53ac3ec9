package scenario

import (
	"testing"

	"vanetsim/internal/geom"
)

// TestQueueHookOnlyWhenObserved pins the disarmed path: the checker reads
// Stats after the run, so with spans and telemetry off a queue has no hook.
func TestQueueHookOnlyWhenObserved(t *testing.T) {
	for _, tc := range []struct {
		name             string
		telemetry, spans bool
		wantHook         bool
	}{
		{"check only", false, false, false},
		{"telemetry", true, false, true},
		{"spans", false, true, true},
	} {
		cfg := DefaultStackConfig(MACTDMA)
		cfg.Check, cfg.Telemetry, cfg.Spans = true, tc.telemetry, tc.spans
		w := NewWorld(cfg, 1)
		n := w.AddNode(0, func() geom.Vec2 { return geom.V(0, 0) })
		if got := w.ifqHook(n) != nil; got != tc.wantHook {
			t.Errorf("%s: hook armed = %v, want %v", tc.name, got, tc.wantHook)
		}
	}
}
