package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"testing/iotest"

	topk "repro"
)

// fuzzStore builds a small store for fuzz iterations: cheap enough to
// rebuild per input (the batch fuzzer mutates it), big enough that
// queries and pagination have something to chew on.
func fuzzStore(t testing.TB) topk.Store {
	t.Helper()
	idx, err := topk.New(topk.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := idx.Insert(float64(i), float64((i*37)%64)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	return LockedIndex(idx)
}

// FuzzTopKQuery drives GET /v1/topk's query parsing (readRangeQuery,
// the number parses, the offset guard, ClampPage) with arbitrary
// parameter strings. The handler must never panic, must answer only
// 200 or 400, and every 200 must carry well-formed JSON whose results
// never exceed the store size.
func FuzzTopKQuery(f *testing.F) {
	f.Add("0", "100", "5", "")
	f.Add("-1e308", "1e308", "1000000", "3")
	f.Add("NaN", "Inf", "-1", "-1")
	f.Add("", "", "", "")
	f.Add("1e999", "-1e999", "9999999999999999999", "07")
	f.Add("0x1p4", "1_0", "+5", " 2")
	st := fuzzStore(f)
	h := New(st, Options{})
	f.Fuzz(func(t *testing.T, x1, x2, k, offset string) {
		q := url.Values{}
		q.Set("x1", x1)
		q.Set("x2", x2)
		q.Set("k", k)
		if offset != "" {
			q.Set("offset", offset)
		}
		req := httptest.NewRequest("GET", "/v1/topk?"+q.Encode(), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("x1=%q x2=%q k=%q offset=%q: status %d", x1, x2, k, offset, rec.Code)
		}
		if rec.Code == http.StatusOK {
			var out struct {
				Results []json.RawMessage `json:"results"`
				Offset  int               `json:"offset"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("x1=%q x2=%q k=%q offset=%q: bad JSON: %v", x1, x2, k, offset, err)
			}
			if len(out.Results) > st.Len() {
				t.Fatalf("x1=%q x2=%q k=%q offset=%q: %d results from a %d-point store", x1, x2, k, offset, len(out.Results), st.Len())
			}
		}
	})
}

// FuzzBatchJSON throws arbitrary bytes at the POST /v1/batch decoder.
// A fresh store per input keeps iterations independent (accepted
// payloads mutate it). The handler must never panic, must map every
// input to 200 or 400, and a 200 must echo one well-formed result item
// per op.
func FuzzBatchJSON(f *testing.F) {
	f.Add([]byte(`{"ops":[{"op":"insert","pos":100.5,"score":99}]}`))
	f.Add([]byte(`{"ops":[{"op":"query","x1":0,"x2":50,"k":3},{"op":"delete","pos":1,"score":1}]}`))
	f.Add([]byte(`{"ops":[{"op":"insert","pos":1e999}]}`))
	f.Add([]byte(`{"ops":[{"op":"bogus"}]}`))
	f.Add([]byte(`{"ops":[`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Add([]byte(`{"ops":[{"op":"query","k":-1,"x1":"a"}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		h := New(fuzzStore(t), Options{})
		req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("batch %q: status %d (%s)", body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code == http.StatusOK {
			var out struct {
				Results []json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("batch %q: bad JSON response: %v", body, err)
			}
		}
	})
}

// FuzzReadRangeQuery holds readRangeQuery, the one-pass reader of
// GET /v1/topk's and /v1/count's parameters, to url.ParseQuery(raw).Get
// on any raw query string. The seeds hold escaped and raw '+', ';',
// empty pairs and values, repeated keys, an escaped key and escapes
// that do not decode.
func FuzzReadRangeQuery(f *testing.F) {
	for _, raw := range []string{
		"",
		"x1=0&x2=100&k=5",
		"x1=1e%2B300&x2=%2BInf&k=3&offset=2",
		"x1=+1&x2=1e+3&k= 4",
		"x1=1;x2=2&k=3",
		"x1=1&;&x2=2&k=3",
		"&&x1=1&&x2=2&k=3&",
		"x1&x2=&k=3&offset",
		"x1=1&x1=2&k=3&k=4&offset=5&offset=6",
		"x1=%zz&x1=7&x2=%&x2=8&k=%4&k=9",
		"x%31=5&x%32=6&%6B=7&offse%74=8",
		"x1=%2b1&x2=-0&k=0x1p4&offset=%20",
		"=1&==&x1==2&x2=3=4",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, _ := url.ParseQuery(raw)
		got := readRangeQuery(raw)
		for _, c := range []struct{ key, got string }{
			{"x1", got.x1}, {"x2", got.x2}, {"k", got.k}, {"offset", got.offset},
		} {
			if c.got != want.Get(c.key) {
				t.Fatalf("readRangeQuery(%q).%s = %q, url.ParseQuery gives %q", raw, c.key, c.got, want.Get(c.key))
			}
		}
	})
}

// FuzzDecodePoint holds decodePoint, the /v1/insert and /v1/delete body
// reader, to json.NewDecoder(...).Decode on every body: the same value,
// bit for bit, and the same error or none, read whole or a byte at a
// time.
func FuzzDecodePoint(f *testing.F) {
	for _, s := range []string{
		`{"x":150000.5,"score":2}`,
		`{"x":-0,"score":1e-400}` + "\n",
		`{"x":1E+2,"score":-0.5e-3} ` + "\t\r\n",
		`{"x":0.30000000000000004,"score":-1.7976931348623157e+308}`,
		`{"score":2,"x":1}`,
		`{"X":1,"score":2}`,
		`{"x":1,"score":2,"y":3}`,
		`{"x":null,"score":2}`,
		`{"x":1e400,"score":2}`,
		`{"x":01,"score":2}`,
		`{"x":1.,"score":2}`,
		`{"x":-,"score":2}`,
		`{"x":1,"score":2}garbage`,
		`{"x":1,"score":2} {"x":3}`,
		`{"x":"1","score":2}`,
		` {"x":1,"score":2}`,
		`{"x":1,"score":2`,
		`{"x":1,"score":` + strings.Repeat("9", 200) + `}`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want topk.Result
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		for _, r := range []io.Reader{bytes.NewReader(body), iotest.OneByteReader(bytes.NewReader(body))} {
			got, err := decodePoint(r)
			if math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
				t.Fatalf("%q: decodePoint read %v, encoding/json %v", body, got, want)
			}
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%q: decodePoint erred %v, encoding/json %v", body, err, wantErr)
			}
		}
	})
}
