package serve

// Tests for the write-path group-commit surface: async-ack 202s with
// queryable outcomes (error codes intact through the 202), probe
// seeing shard introspection through the Batched wrapper, and the
// pooled response encoder's allocation ceiling.

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	topk "repro"
	"repro/internal/wire"
)

func batchedStore(t *testing.T, n int) *topk.Batched {
	t.Helper()
	bt, err := topk.NewBatched(testStore(t, n), topk.BatchedConfig{Window: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bt.Close() })
	return bt
}

// outcomeBody is the /v1/outcome/{id} response shape.
type outcomeBody struct {
	Done  bool        `json:"done"`
	OK    bool        `json:"ok"`
	Error *wire.Error `json:"error"`
}

// pollOutcome polls /v1/outcome/{id} until done (bounded).
func pollOutcome(t *testing.T, base, id string) outcomeBody {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var out outcomeBody
		if code := getJSON(t, base+"/v1/outcome/"+id, &out); code != http.StatusOK {
			t.Fatalf("outcome %s: status %d", id, code)
		}
		if out.Done {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("outcome %s never resolved", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncAckFlow drives the 202 path end to end: accepted insert,
// outcome resolves ok, the point is served by reads once committed.
func TestAsyncAckFlow(t *testing.T) {
	bt := batchedStore(t, 50)
	srv := httptest.NewServer(New(bt, Options{AsyncAck: true}))
	defer srv.Close()

	var ack struct {
		Accepted bool   `json:"accepted"`
		Outcome  string `json:"outcome"`
	}
	code := postJSON(t, srv.URL+"/v1/insert", `{"x": 2e6, "score": 2e6}`, &ack)
	if code != http.StatusAccepted {
		t.Fatalf("insert status = %d, want 202", code)
	}
	if !ack.Accepted || ack.Outcome == "" {
		t.Fatalf("ack = %+v, want accepted with an outcome id", ack)
	}
	if out := pollOutcome(t, srv.URL, ack.Outcome); !out.OK || out.Error != nil {
		t.Fatalf("outcome = %+v, want ok", out)
	}

	// The committed write is readable.
	var cnt struct {
		Count int `json:"count"`
	}
	if code := getJSON(t, srv.URL+"/v1/count?x1=1.5e6&x2=3e6", &cnt); code != 200 || cnt.Count != 1 {
		t.Fatalf("count = %d (status %d), want 1", cnt.Count, code)
	}

	// Async delete resolves too; absent point carries not_found.
	code = postJSON(t, srv.URL+"/v1/delete", `{"x": 2e6, "score": 2e6}`, &ack)
	if code != http.StatusAccepted {
		t.Fatalf("delete status = %d, want 202", code)
	}
	if out := pollOutcome(t, srv.URL, ack.Outcome); !out.OK {
		t.Fatalf("delete outcome = %+v, want ok", out)
	}

	// Unknown outcome IDs are structured 404s.
	var e struct {
		Error wire.Error `json:"error"`
	}
	if code := getJSON(t, srv.URL+"/v1/outcome/deadbeefdeadbeef", &e); code != http.StatusNotFound {
		t.Fatalf("unknown outcome status = %d, want 404", code)
	}
	if e.Error.Code != "outcome_not_found" {
		t.Fatalf("unknown outcome code = %q", e.Error.Code)
	}
}

// TestIngestTelemetryExported: a batched backend exports the write-path
// families on /v1/metrics (through the standard parser pass) and the
// structured batcher block — flush reasons, group-size and
// flush-latency quantiles, outcome-ring occupancy — on /v1/stats.
func TestIngestTelemetryExported(t *testing.T) {
	bt := batchedStore(t, 50)
	srv := httptest.NewServer(New(bt, Options{AsyncAck: true}))
	defer srv.Close()

	var ack struct {
		Outcome string `json:"outcome"`
	}
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"x": %d, "score": %d}`, 3000000+i, 3000000+i)
		if code := postJSON(t, srv.URL+"/v1/insert", body, &ack); code != http.StatusAccepted {
			t.Fatalf("insert %d status = %d, want 202", i, code)
		}
	}
	pollOutcome(t, srv.URL, ack.Outcome)

	fams := scrape(t, srv.URL)
	for _, name := range []string{
		"topkd_ingest_flushes_total",
		"topkd_ingest_ops_total",
		"topkd_ingest_pending",
		"topkd_ingest_group_size",
		"topkd_ingest_flush_duration_seconds",
		"topkd_ingest_backpressure_wait_seconds",
		"topkd_ingest_flushes_by_reason_total",
		"topkd_outcome_ring_occupancy",
		"topkd_outcome_ring_evictions_total",
		"topkd_trace_ring_evictions_total",
	} {
		if fams[name] == nil {
			t.Errorf("batched backend missing family %s", name)
		}
	}
	reasons := map[string]float64{}
	total := 0.0
	for _, s := range fams["topkd_ingest_flushes_by_reason_total"].samples {
		reasons[s.labels["reason"]] = s.value
		total += s.value
	}
	for _, r := range []string{"slot_winner", "size", "deadline", "backpressure", "direct_fallback", "explicit"} {
		if _, ok := reasons[r]; !ok {
			t.Errorf("flush-reason counter missing label %q: %v", r, reasons)
		}
	}
	if total == 0 {
		t.Error("no flushes attributed to any reason after 5 committed writes")
	}
	if f := fams["topkd_outcome_ring_occupancy"]; len(f.samples) != 1 || f.samples[0].value < 5 {
		t.Errorf("outcome ring occupancy = %+v, want >= 5", f.samples)
	}

	var stats struct {
		Batcher struct {
			Flushes      int64            `json:"flushes"`
			FlushReasons map[string]int64 `json:"flush_reasons"`
			GroupSize    *struct {
				Count uint64 `json:"count"`
			} `json:"group_size"`
			FlushLatency *struct {
				Count uint64 `json:"count"`
			} `json:"flush_latency"`
			OutcomeRing *struct {
				Occupancy int   `json:"occupancy"`
				Evictions int64 `json:"evictions"`
			} `json:"outcome_ring"`
		} `json:"batcher"`
	}
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	b := stats.Batcher
	if len(b.FlushReasons) == 0 {
		t.Error("stats missing batcher.flush_reasons")
	}
	if b.GroupSize == nil || b.GroupSize.Count == 0 {
		t.Errorf("stats batcher.group_size = %+v, want committed groups", b.GroupSize)
	}
	if b.FlushLatency == nil || b.FlushLatency.Count == 0 {
		t.Errorf("stats batcher.flush_latency = %+v, want observations", b.FlushLatency)
	}
	if b.OutcomeRing == nil || b.OutcomeRing.Occupancy < 5 {
		t.Errorf("stats batcher.outcome_ring = %+v, want occupancy >= 5", b.OutcomeRing)
	}
}

// TestAsyncAckErrorFidelity is the satellite pin: every sentinel the
// sync endpoint maps to a code comes back with the same code in the
// async outcome body.
func TestAsyncAckErrorFidelity(t *testing.T) {
	bt := batchedStore(t, 0)
	srv := httptest.NewServer(New(bt, Options{AsyncAck: true}))
	defer srv.Close()

	submit := func(path, body string) string {
		t.Helper()
		var ack struct {
			Outcome string `json:"outcome"`
		}
		if code := postJSON(t, srv.URL+path, body, &ack); code != http.StatusAccepted {
			t.Fatalf("%s status = %d, want 202", path, code)
		}
		return ack.Outcome
	}

	// Seed a point (and wait for it) so duplicates have a target.
	if out := pollOutcome(t, srv.URL, submit("/v1/insert", `{"x": 10, "score": 100}`)); !out.OK {
		t.Fatalf("seed outcome = %+v", out)
	}

	// ErrInvalidPoint is absent by construction: JSON cannot carry NaN
	// or ±Inf, so no HTTP body reaches the store's finiteness check —
	// on the sync path either. Its async round-trip is pinned at the
	// API layer (TestBatchedErrorFidelity in the root package).
	cases := []struct {
		name, path, body, code string
	}{
		{"duplicate position", "/v1/insert", `{"x": 10, "score": 999}`, "duplicate_position"},
		{"duplicate score", "/v1/insert", `{"x": 999, "score": 100}`, "duplicate_score"},
		{"delete absent", "/v1/delete", `{"x": 777, "score": 777}`, "not_found"},
	}
	for _, tc := range cases {
		id := submit(tc.path, tc.body)
		out := pollOutcome(t, srv.URL, id)
		if out.OK || out.Error == nil {
			t.Errorf("%s: outcome = %+v, want structured error", tc.name, out)
			continue
		}
		if out.Error.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, out.Error.Code, tc.code)
		}
	}

	// Band enforcement stays synchronous: a misrouted write is a 400
	// out_of_range even in async-ack mode, never a 202.
	banded := httptest.NewServer(New(bt, Options{Lo: 10, Hi: 20, AsyncAck: true}))
	defer banded.Close()
	var e struct {
		Error wire.Error `json:"error"`
	}
	if code := postJSON(t, banded.URL+"/v1/insert", `{"x": 1, "score": 50}`, &e); code != http.StatusBadRequest {
		t.Fatalf("out-of-band async insert status = %d, want 400", code)
	}
	if e.Error.Code != "out_of_range" {
		t.Fatalf("out-of-band async insert code = %q", e.Error.Code)
	}
}

// TestAsyncAckIgnoredWithoutBatcher pins the degrade path: AsyncAck
// over a store with no submit surface serves synchronously.
func TestAsyncAckIgnoredWithoutBatcher(t *testing.T) {
	srv := httptest.NewServer(New(testStore(t, 10), Options{AsyncAck: true}))
	defer srv.Close()
	var out struct {
		OK bool `json:"ok"`
	}
	if code := postJSON(t, srv.URL+"/v1/insert", `{"x": 2e6, "score": 2e6}`, &out); code != 200 || !out.OK {
		t.Fatalf("status %d ok=%v, want sync 200", code, out.OK)
	}
}

// TestProbeSeesThroughBatched: the Batched wrapper must not hide shard
// introspection from /v1/stats, and must add its own batcher block.
func TestProbeSeesThroughBatched(t *testing.T) {
	bt := batchedStore(t, 100)
	if err := bt.Insert(2e6, 2e6); err != nil { // non-trivial batcher stats
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(bt, Options{}))
	defer srv.Close()
	var stats struct {
		Shards  int `json:"shards"`
		Batcher *struct {
			Ops int64 `json:"ops"`
		} `json:"batcher"`
	}
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if stats.Shards == 0 {
		t.Fatal("shard count hidden by the Batched wrapper (probe not unwrapping)")
	}
	if stats.Batcher == nil || stats.Batcher.Ops != 1 {
		t.Fatalf("batcher stats = %+v, want ops 1", stats.Batcher)
	}

	// /v1/epoch sees through too.
	var ep struct {
		Epoch int64 `json:"epoch"`
	}
	if code := getJSON(t, srv.URL+"/v1/epoch", &ep); code != 200 || ep.Epoch == 0 {
		t.Fatalf("epoch = %d (status %d), want the inner Sharded's epoch", ep.Epoch, code)
	}
}

// discardRW is a minimal ResponseWriter so the allocation measurement
// below counts the encode path, not httptest recorder bookkeeping.
type discardRW struct{ h http.Header }

func (d *discardRW) Header() http.Header         { return d.h }
func (d *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardRW) WriteHeader(int)             {}

// TestWriteJSONPooledAllocs pins the satellite: buffering the response
// (so an encode error can never leave a half-written 200) must come
// from the pool, not from a fresh buffer+encoder per response, and the
// whole pooled path must hold a small absolute allocation ceiling.
func TestWriteJSONPooledAllocs(t *testing.T) {
	if raceEnabled {
		// Race mode makes sync.Pool deliberately drop items to expose
		// misuse, so allocation deltas are meaningless under it.
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	v := map[string]any{"ok": true, "n": 12345}
	w := &discardRW{h: make(http.Header)}

	// Warm the pool so the measurement sees steady state.
	writeJSONLog(w, v, log)

	pooled := testing.AllocsPerRun(200, func() {
		writeJSONLog(w, v, log)
	})
	// The unpooled baseline is the same buffered implementation with a
	// fresh buffer+encoder per response — exactly what the pool
	// eliminates.
	unpooled := testing.AllocsPerRun(200, func() {
		e := &encBuf{}
		e.enc = json.NewEncoder(&e.buf)
		if err := e.enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(e.buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	})
	if pooled >= unpooled {
		t.Errorf("pooled encode allocs/op = %.1f, unpooled = %.1f — pool buys nothing", pooled, unpooled)
	}
	// Absolute ceiling: the map iteration and its boxed values still
	// allocate inside encoding/json (measured 6/op on go1.24), but the
	// buffer and encoder must come from the pool. A regression
	// re-allocating either per call blows past the headroom.
	if pooled > 8 {
		t.Errorf("pooled encode allocs/op = %.1f, want ≤ 8", pooled)
	}
}
