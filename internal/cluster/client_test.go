package cluster

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/wire"
)

// TestRangeBoundsRoundTrip: the bounds node.topk and node.count put in
// a member's query string read back bit for bit through
// url.ParseQuery and strconv.ParseFloat, as the member reads them:
// ±Inf and exponents keep their '+', and −0 its sign.
func TestRangeBoundsRoundTrip(t *testing.T) {
	var x1, x2 float64
	var k string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var err1, err2 error
		x1, err1 = strconv.ParseFloat(q.Get("x1"), 64)
		x2, err2 = strconv.ParseFloat(q.Get("x2"), 64)
		k = q.Get("k")
		if err1 != nil || err2 != nil {
			http.Error(w, fmt.Sprint(err1, err2), http.StatusInternalServerError)
			return
		}
		if r.URL.Path == "/v1/count" {
			fmt.Fprint(w, `{"count":7}`)
			return
		}
		w.Header().Set("Content-Type", wire.PointsType)
		w.Write(wire.AppendPoints(nil, nil))
	}))
	defer srv.Close()
	n := &node{addr: srv.URL, rt: srv.Client().Transport}
	ctx := context.Background()
	bounds := []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 5e-324, 1e+300, -1e-300, 123.25}
	for _, lo := range bounds {
		for _, hi := range bounds {
			if _, err := n.topk(ctx, nil, lo, hi, 42); err != nil {
				t.Fatalf("topk(%v, %v): %v", lo, hi, err)
			}
			if math.Float64bits(x1) != math.Float64bits(lo) || math.Float64bits(x2) != math.Float64bits(hi) || k != "42" {
				t.Fatalf("topk(%v, %v, 42): the member read x1=%v x2=%v k=%q", lo, hi, x1, x2, k)
			}
			if c, err := n.count(ctx, lo, hi); err != nil || c != 7 {
				t.Fatalf("count(%v, %v) = %d, %v", lo, hi, c, err)
			}
			if math.Float64bits(x1) != math.Float64bits(lo) || math.Float64bits(x2) != math.Float64bits(hi) {
				t.Fatalf("count(%v, %v): the member read x1=%v x2=%v", lo, hi, x1, x2)
			}
		}
	}
}
