// Testdata consumer of the obs stand-in: request-derived labels on
// the left, allowlisted and config-derived labels on the right.
package app

import (
	"net/http"
	"time"

	"b/internal/obs"
)

func bad(t *obs.Telemetry, v *obs.Vec, r *http.Request, d time.Duration) {
	v.Observe(r.URL.Path, d) // want "Vec.Observe label derives from request data"

	label := r.URL.Query().Get("metric")
	v.Observe(label, d) // want "Vec.Observe label derives from request data"

	t.TimeOpCtx(r.Context(), r.URL.Path).End() // want "Telemetry.TimeOpCtx label derives from request data"

	// Two assignment hops from the request: the dataflow chain walks
	// q -> p -> r.URL.Path where the old one-hop scan stopped at p.
	p := r.URL.Path
	q := p
	v.Observe(q, d) // want "Vec.Observe label derives from request data"
}

func good(t *obs.Telemetry, v *obs.Vec, r *http.Request, d time.Duration, nodeAddr string) {
	v.Observe("topk", d)

	endpoint := obs.EndpointLabel(r.URL.Path)
	v.Observe(endpoint, d)

	// Config-derived, bounded by deployment size: out of the rule's
	// scope (mirrors the cluster client labeling by node address).
	v.Observe(nodeAddr, d)

	defer t.TimeOpCtx(r.Context(), "topk").End()
}
