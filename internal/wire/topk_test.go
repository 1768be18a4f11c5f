package wire_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	topk "repro"
	"repro/internal/point"
	"repro/internal/serve"
	"repro/internal/wire"
)

// edgeValues are floats whose encoding/json spelling is unusual: the
// switches between plain and exponent notation (1e-7 below 1e-6, 1e21
// at the upper edge), the smallest subnormal, negative zero, both ends
// of the float64 range, a non-terminating binary fraction and integers.
var edgeValues = []float64{1e-7, 1e20, 1e21, 5e-324, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, 0.1, 3, -42, 123456789, 2.5e-6}

// edgePoints pairs the edge values as positions with a rotation of
// them as scores, so both coordinates take every value once.
func edgePoints() []point.P {
	pts := make([]point.P, len(edgeValues))
	for i, x := range edgeValues {
		pts[i] = point.P{X: x, Score: edgeValues[(i+3)%len(edgeValues)]}
	}
	return pts
}

// sameBits reports whether got and want hold the same points bit for
// bit, so that -0 and 0 differ.
func sameBits(got, want []point.P) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// TestParseTopKServeRoundTrip reads back what internal/serve's real
// /v1/topk handler writes: every page parses to the store's own answer
// bit for bit, and without an allocation, so every body took the
// hand-scanned path rather than the encoding/json fallback.
func TestParseTopKServeRoundTrip(t *testing.T) {
	idx, err := topk.Load(topk.Config{}, edgePoints())
	if err != nil {
		t.Fatal(err)
	}
	st := serve.LockedIndex(idx)
	h := serve.New(st, serve.Options{})
	all := len(edgeValues)
	for _, c := range []struct {
		x1, x2   float64
		k, off   int
		wantSize int
	}{
		{-math.MaxFloat64, math.MaxFloat64, all, 0, all},
		{-math.MaxFloat64, math.MaxFloat64, 4, 3, 4},   // a middle page
		{-1, 1e21, all, 2, 7},                          // the tail past an offset
		{2, 2.5, 5, 0, 0},                              // an empty range
		{-math.MaxFloat64, math.MaxFloat64, 3, all, 0}, // a page past the end
	} {
		q := url.Values{}
		q.Set("x1", strconv.FormatFloat(c.x1, 'g', -1, 64))
		q.Set("x2", strconv.FormatFloat(c.x2, 'g', -1, 64))
		q.Set("k", strconv.Itoa(c.k))
		q.Set("offset", strconv.Itoa(c.off))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/topk?"+q.Encode(), nil))
		if rec.Code != 200 {
			t.Fatalf("%v: status %d: %s", c, rec.Code, rec.Body)
		}
		body, err := io.ReadAll(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		want := st.TopK(c.x1, c.x2, c.off+c.k)
		want = want[min(c.off, len(want)):]
		if len(want) != c.wantSize {
			t.Fatalf("%v: store answered %d points, want %d", c, len(want), c.wantSize)
		}
		got, err := wire.ParseTopK(body, nil)
		if err != nil {
			t.Fatalf("%v: %v on %s", c, err, body)
		}
		if !sameBits(got, want) {
			t.Fatalf("%v: parsed %v from %s, want %v", c, got, body, want)
		}
		dst := make([]point.P, 0, len(want))
		if allocs := testing.AllocsPerRun(10, func() { dst, _ = wire.ParseTopK(body, dst[:0]) }); allocs != 0 {
			t.Fatalf("%v: %.0f allocations parsing %s: not the hand-scanned path", c, allocs, body)
		}
	}
}

// TestTopKEncodesLikeMap pins wire.TopK's encoding to the bytes of the
// map[string]any{"results", "offset"} the /v1/topk handler encoded
// before the type existed.
func TestTopKEncodesLikeMap(t *testing.T) {
	for _, c := range []struct {
		off int
		res []point.P
	}{
		{0, edgePoints()},
		{7, edgePoints()[2:5]},
		{0, []point.P{}},
		{3, nil},
	} {
		got, err := json.Marshal(wire.TopK{Offset: c.off, Results: c.res})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(map[string]any{"results": c.res, "offset": c.off})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("wire.TopK encodes\n%s\nthe map encodes\n%s", got, want)
		}
	}
}

// canonicalBody is what encoding/json writes for a page of n points.
func canonicalBody(tb testing.TB, n int) []byte {
	tb.Helper()
	res := make([]point.P, n)
	for i := range res {
		res[i] = point.P{X: float64(i)*1234.5678 + 0.1, Score: 1 / float64(i+3)}
	}
	body, err := json.Marshal(wire.TopK{Offset: 5, Results: res})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestParseTopKZeroAllocs: a canonical body parses into a dst with room
// for it without allocating.
func TestParseTopKZeroAllocs(t *testing.T) {
	body := canonicalBody(t, 512)
	dst := make([]point.P, 0, 512)
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if dst, err = wire.ParseTopK(body, dst[:0]); err != nil || len(dst) != 512 {
			t.Fatalf("parsed %d points, err %v", len(dst), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseTopK allocates %.1f times per 512-point body, want 0", allocs)
	}
}

// TestParseTopKAppends: the points land after dst's own, and a body
// that does not parse leaves dst as it was.
func TestParseTopKAppends(t *testing.T) {
	head := []point.P{{X: 1, Score: 2}}
	got, err := wire.ParseTopK([]byte(`{"offset":0,"results":[{"x":3,"score":4}]}`), head)
	if err != nil || !sameBits(got, []point.P{{X: 1, Score: 2}, {X: 3, Score: 4}}) {
		t.Fatalf("got %v, %v", got, err)
	}
	got, err = wire.ParseTopK([]byte(`{"offset":0,"results":[{"x":3,"score":4},`), head)
	if err == nil || !sameBits(got, head) {
		t.Fatalf("torn body: got %v, %v; want %v and an error", got, err, head)
	}
}

// FuzzParseTopK holds ParseTopK to encoding/json on arbitrary bytes:
// the same points bit for bit when json.Unmarshal into wire.TopK
// succeeds, the same error when it fails.
func FuzzParseTopK(f *testing.F) {
	canonical := string(canonicalBody(f, 3))
	for _, s := range []string{
		canonical,
		canonical + "\n",
		`{"offset":0,"results":[]}`,
		`{"offset":2,"results":[{"x":-0,"score":5e-324},{"x":1e+21,"score":-1.7976931348623157e+308}]}`,
		// valid, not canonical
		"{ \"offset\" : 0 ,\n\"results\" : [ {\"x\":1, \"score\":2} ] }",
		`{"results":[{"score":2,"x":1}],"offset":0}`,
		`{"offset":0,"results":[{"x":1,"score":2,"extra":true}],"n":3}`,
		`{"offset":0,"results":null}`,
		`{"offset":0,"results":[{"x":1E+2,"score":-0.0}]}`,
		`{"OFFSET":0,"Results":[{"X":1,"Score":2}]}`,
		// invalid
		`{"offset":0,"results":[{"x":1,"score":2}]}garbage`,
		`{"offset":0,"results":{}}`,
		`{"offset":1.5,"results":[]}`,
		`{"offset":0,"results":[{"x":1e400,"score":2}]}`,
		`{"offset":0,"results":[{"x":01,"score":2}]}`,
		"",
	} {
		f.Add([]byte(s))
	}
	for _, cut := range []int{1, 10, 23, 30, len(canonical) / 2, len(canonical) - 1} {
		f.Add([]byte(canonical[:cut]))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want wire.TopK
		wantErr := json.Unmarshal(body, &want)
		got, err := wire.ParseTopK(body, nil)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseTopK(%q): error %v, json.Unmarshal: %v", body, err, wantErr)
		}
		if err == nil && !sameBits(got, want.Results) {
			t.Fatalf("ParseTopK(%q) = %v, json.Unmarshal: %v", body, got, want.Results)
		}
	})
}

// BenchmarkParseTopK compares ParseTopK with json.Unmarshal on a
// canonical 4,096-point body, the size of a wide read's page.
func BenchmarkParseTopK(b *testing.B) {
	body := canonicalBody(b, 4096)
	b.Run("ParseTopK", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]point.P, 0, 4096)
		for i := 0; i < b.N; i++ {
			dst, _ = wire.ParseTopK(body, dst[:0])
		}
	})
	b.Run("json.Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var t wire.TopK
			_ = json.Unmarshal(body, &t)
		}
	})
}
