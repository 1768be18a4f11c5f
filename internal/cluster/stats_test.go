package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestStatsPeakIsHighWaterMark: two members reach their peaks at
// different instants, and the gateway's BlocksPeak is the largest
// fleet-wide live total it observed, not the sum of the members' own
// peaks (200 blocks, a total no instant held).
func TestStatsPeakIsHighWaterMark(t *testing.T) {
	var step atomic.Int64
	member := func(band string, live, peak []int64) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/range":
				fmt.Fprint(w, band)
			case "/v1/stats":
				i := step.Load()
				fmt.Fprintf(w, `{"n":0,"reads":1,"writes":2,"blocks_live":%d,"blocks_peak":%d}`, live[i], peak[i])
			default:
				http.NotFound(w, r)
			}
		}))
	}
	a := member(`{"lo":null,"hi":0.5,"n":0}`, []int64{10, 100, 10, 10}, []int64{10, 100, 100, 100})
	defer a.Close()
	b := member(`{"lo":0.5,"hi":null,"n":0}`, []int64{10, 10, 100, 10}, []int64{10, 10, 100, 100})
	defer b.Close()
	c, err := New(Config{Members: []string{a.URL, b.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, want := range []Stats{
		{Reads: 2, Writes: 4, BlocksLive: 20, BlocksPeak: 20},
		{Reads: 2, Writes: 4, BlocksLive: 110, BlocksPeak: 110},
		{Reads: 2, Writes: 4, BlocksLive: 110, BlocksPeak: 110},
		{Reads: 2, Writes: 4, BlocksLive: 20, BlocksPeak: 110},
	} {
		step.Store(int64(i))
		if got := c.Stats(context.Background()); got != want {
			t.Fatalf("step %d: Stats = %+v, want %+v", i, got, want)
		}
	}
}
