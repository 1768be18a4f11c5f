// Testdata stand-in for the real internal/obs telemetry surface: the
// two label-keyed entry points and the allowlist clamp.
package obs

import (
	"context"
	"time"
)

type Vec struct{}

func (v *Vec) Observe(label string, d time.Duration) {}

type Telemetry struct {
	HTTP *Vec
}

type OpTimer struct{}

func (o OpTimer) End() {}

func (t *Telemetry) TimeOpCtx(ctx context.Context, op string) OpTimer { return OpTimer{} }

// EndpointLabel clamps arbitrary paths onto the closed label set.
func EndpointLabel(path string) string {
	if path == "/v1/topk" || path == "/v1/batch" {
		return path
	}
	return "other"
}
