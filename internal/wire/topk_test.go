package wire_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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
// The points body must carry every one of them bit for bit.
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

// TestParseTopKServeRoundTrip reads back with wire.ParsePoints what
// internal/serve's real /v1/topk handler writes when asked for
// wire.PointsType: every page parses to the store's own answer bit for
// bit, and without an allocation into a dst with room for it.
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
		req := httptest.NewRequest("GET", "/v1/topk?"+q.Encode(), nil)
		req.Header.Set("Accept", wire.PointsType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("%v: status %d: %s", c, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != wire.PointsType {
			t.Fatalf("%v: Content-Type %q, want %q", c, ct, wire.PointsType)
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
		got, err := wire.ParsePoints(body, nil)
		if err != nil {
			t.Fatalf("%v: %v on % x", c, err, body)
		}
		if !sameBits(got, want) {
			t.Fatalf("%v: parsed %v from % x, want %v", c, got, body, want)
		}
		dst := make([]point.P, 0, len(want))
		if allocs := testing.AllocsPerRun(10, func() { dst, _ = wire.ParsePoints(body, dst[:0]) }); allocs != 0 {
			t.Fatalf("%v: %.0f allocations parsing %d points into a sized dst, want 0", c, allocs, len(want))
		}
	}
}

// jsonPage is what encoding/json's Encoder writes for the /v1/topk
// page AppendTopK spells: the map the handler once encoded, with nil
// results as the empty page the handler sent for them.
func jsonPage(t testing.TB, off int, res []point.P) []byte {
	if res == nil {
		res = []point.P{}
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(map[string]any{"results": res, "offset": off}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTopKEncodesLikeMap pins wire.AppendTopK's bytes to those of the
// map[string]any{"results", "offset"} the /v1/topk handler encoded
// through encoding/json, and checks that they land after dst's own.
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
		head := []byte("head")
		got := wire.AppendTopK(head, c.off, c.res)
		if want := append([]byte("head"), jsonPage(t, c.off, c.res)...); !bytes.Equal(got, want) {
			t.Fatalf("wire.AppendTopK writes\n%s\nencoding/json writes\n%s", got, want)
		}
	}
}

// FuzzAppendTopK holds AppendTopK to encoding/json on any page of
// finite points, read from raw as little-endian float64 bit pairs. The
// seeds hold the floats whose spelling switches notation or sign: ±0,
// the smallest subnormal, the neighbours of 1e-6 and 1e21 on either
// side, ±MaxFloat64; with and without an offset, and empty pages.
func FuzzAppendTopK(f *testing.F) {
	bits := func(fs ...float64) []byte {
		var b []byte
		for _, x := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	up, down := math.Inf(1), math.Inf(-1)
	f.Add(0, bits())
	f.Add(5, bits())
	f.Add(0, bits(0, math.Copysign(0, -1), 5e-324, -5e-324))
	f.Add(3, bits(math.Nextafter(1e-6, down), 1e-6, math.Nextafter(1e-6, up), -1e-6))
	f.Add(1, bits(math.Nextafter(1e21, down), 1e21, math.Nextafter(1e21, up), -1e21))
	f.Add(0, bits(math.MaxFloat64, -math.MaxFloat64, 1e-7, 1e-100, 1e300, 0.1))
	f.Add(42, bits(edgeValues...))
	f.Fuzz(func(t *testing.T, off int, raw []byte) {
		var pts []point.P
		for ; len(raw) >= 16; raw = raw[16:] {
			p := point.P{
				X:     math.Float64frombits(binary.LittleEndian.Uint64(raw)),
				Score: math.Float64frombits(binary.LittleEndian.Uint64(raw[8:])),
			}
			if p.Finite() {
				pts = append(pts, p)
			}
		}
		if got, want := wire.AppendTopK(nil, off, pts), jsonPage(t, off, pts); !bytes.Equal(got, want) {
			t.Fatalf("wire.AppendTopK(%d, %v) writes\n%s\nencoding/json writes\n%s", off, pts, got, want)
		}
	})
}

// withCount is a copy of body with its count field overwritten by n.
func withCount(body []byte, n uint64) []byte {
	out := bytes.Clone(body)
	binary.LittleEndian.PutUint64(out, n)
	return out
}

// tornPoints are bodies ParsePoints must refuse, cut from body, a
// points body of at least one point: a byte short, a byte over, counts
// one over and near 2^64, a bare count of 2^64-2, and nothing at all.
func tornPoints(body []byte) [][]byte {
	return [][]byte{
		body[:len(body)-1],
		append(body[:len(body):len(body)], 0),
		withCount(body, binary.LittleEndian.Uint64(body)+1),
		withCount(body, math.MaxUint64),
		withCount(body[:8], math.MaxUint64-1),
		nil,
	}
}

// TestParseTopKZeroAllocs: a 512-point body parses into a dst with
// room for it without allocating, and a torn body fails without
// allocating, even when its count is near 2^64.
func TestParseTopKZeroAllocs(t *testing.T) {
	pts := make([]point.P, 512)
	for i := range pts {
		pts[i] = point.P{X: float64(i)*1234.5678 + 0.1, Score: 1 / float64(i+3)}
	}
	body := wire.AppendPoints(nil, pts)
	dst := make([]point.P, 0, len(pts))
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if dst, err = wire.ParsePoints(body, dst[:0]); err != nil || len(dst) != len(pts) {
			t.Fatalf("parsed %d points, err %v", len(dst), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParsePoints allocates %.1f times per 512-point body, want 0", allocs)
	}
	for _, torn := range tornPoints(body) {
		if allocs := testing.AllocsPerRun(10, func() { _, _ = wire.ParsePoints(torn, nil) }); allocs != 0 {
			t.Fatalf("torn body of %d bytes: %.0f allocations, want 0", len(torn), allocs)
		}
	}
}

// TestParseTopKAppends: the points land after dst's own, and a body
// that does not parse leaves dst as it was.
func TestParseTopKAppends(t *testing.T) {
	head := []point.P{{X: 1, Score: 2}}
	body := wire.AppendPoints(nil, []point.P{{X: 3, Score: 4}, {X: 5, Score: 6}})
	got, err := wire.ParsePoints(body, head)
	if err != nil || !sameBits(got, []point.P{{X: 1, Score: 2}, {X: 3, Score: 4}, {X: 5, Score: 6}}) {
		t.Fatalf("got %v, %v", got, err)
	}
	for _, torn := range tornPoints(body) {
		got, err := wire.ParsePoints(torn, head)
		if err == nil || !sameBits(got, head) {
			t.Fatalf("torn body % x: got %v, %v; want %v and an error", torn, got, err, head)
		}
	}
}

// FuzzParseTopK holds ParsePoints, the gateway's /v1/topk decoder, to
// this: for any bytes it either fails and leaves dst at its input
// length, or consumes the whole body as 8+16·count bytes whose
// AppendPoints re-encoding is the body itself.
func FuzzParseTopK(f *testing.F) {
	body := wire.AppendPoints(nil, edgePoints())
	for _, s := range [][]byte{
		body,
		wire.AppendPoints(nil, nil),
		wire.AppendPoints(nil, edgePoints()[:1]),
		nil,
		// truncated: inside the count, inside a point, at a point boundary
		body[:1], body[:7], body[:8], body[:8+5], body[:8+8], body[:8+15], body[:8+16],
		body[:len(body)/2], body[:len(body)-1],
		// overlong
		append(body[:len(body):len(body)], 0),
		append(body[:len(body):len(body)], make([]byte, 16)...),
		append(body[:len(body):len(body)], body...),
		// lying counts
		withCount(body, 0),
		withCount(body, uint64(len(edgeValues)-1)),
		withCount(body, uint64(len(edgeValues)+1)),
		withCount(body, 1<<60),
		withCount(body, math.MaxUint64),
		withCount(body[:8], math.MaxUint64),
		withCount(body[:8], 1),
	} {
		f.Add(s)
	}
	head := []point.P{{X: -1, Score: -2}}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := wire.ParsePoints(body, head[:1:1])
		if err != nil {
			if !sameBits(got, head) {
				t.Fatalf("ParsePoints(% x) failed with %v but returned %v, want dst %v", body, err, got, head)
			}
			return
		}
		if !sameBits(got[:1], head) {
			t.Fatalf("ParsePoints(% x) overwrote dst: %v", body, got)
		}
		if re := wire.AppendPoints(nil, got[1:]); !bytes.Equal(re, body) {
			t.Fatalf("ParsePoints(% x) = %v, which re-encodes as % x", body, got[1:], re)
		}
	})
}
