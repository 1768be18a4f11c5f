package cluster

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/point"
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

// countingConn counts the writes made to its connection. It hides the
// connection's ReadFrom, so a body net/http copies to it is counted
// too.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestBatchLeavesInOneWrite: a member RPC leaves the gateway in one
// write to its connection, a /v1/batch request's headers and body
// together as a TopK's headers are; a body net/http does not know to
// be in memory makes it flush the headers alone first.
func TestBatchLeavesInOneWrite(t *testing.T) {
	m := &fakeMember{band: `{"lo":null,"hi":null,"n":3}`, pts: []point.P{{X: 1, Score: 0.9}, {X: 2, Score: 0.8}, {X: 3, Score: 0.7}}}
	srv := httptest.NewServer(m)
	defer srv.Close()
	var writes atomic.Int64
	var dialer net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dialer.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{conn, &writes}, nil
	}}
	defer tr.CloseIdleConnections()
	c, err := New(Config{Members: []string{srv.URL}, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	rpcs := map[string]func(i int){
		"TopK": func(int) {
			if got := c.TopK(ctx, 0, 10, 2); len(got) != 2 {
				t.Fatalf("TopK answered %d points, want 2", len(got))
			}
		},
		"QueryBatch": func(int) {
			if got := c.QueryBatch(ctx, []point.Query{{X1: 0, X2: 10, K: 2}}); len(got[0]) != 2 {
				t.Fatalf("QueryBatch answered %d points, want 2", len(got[0]))
			}
		},
		"ApplyBatch/1": func(i int) {
			if errs := c.ApplyBatch(ctx, []point.Op{{X: float64(10 + i), Score: 0.5 + float64(i)/1e3}}); errs[0] != nil {
				t.Fatal(errs[0])
			}
		},
		"ApplyBatch/8": func(i int) {
			ops := make([]point.Op, 8)
			for j := range ops {
				ops[j] = point.Op{X: float64(1000 + 8*i + j), Score: 0.25 + float64(8*i+j)/1e5}
			}
			for _, err := range c.ApplyBatch(ctx, ops) {
				if err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, rpc := range rpcs {
		rpc(0) // dials the connection the rest reuse
		before := writes.Load()
		const n = 20
		for i := 1; i <= n; i++ {
			rpc(i)
		}
		if got := writes.Load() - before; got != n {
			t.Errorf("%s: %d member RPCs made %d connection writes, want one each", name, n, got)
		}
	}
}
