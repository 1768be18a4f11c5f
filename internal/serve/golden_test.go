package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	topk "repro"
	"repro/internal/wire"
)

// TestGoldenBytes pins the exact bytes of the /v1 response shapes the
// cluster client and external callers decode: a top-k hit, an empty
// top-k page (results [] rather than null), a mixed /v1/batch, the
// structured error envelope, the /v1/insert and /v1/delete acks (found
// and not), the top-k hit again as the binary points body a gateway
// asks its members for, and a mixed batch as the binary ops and items
// bodies a gateway and its members exchange. Any change to the wire
// spelling of a point, a batch op or item, an ack or an error fails
// here.
func TestGoldenBytes(t *testing.T) {
	idx, err := topk.Load(topk.Config{}, []topk.Result{
		{X: 10, Score: 1.5}, {X: 20, Score: 2.5}, {X: 30, Score: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(LockedIndex(idx), Options{}))
	defer srv.Close()

	do := func(req *http.Request) (int, string, string) {
		t.Helper()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
	}
	call := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		status, _, b := do(req)
		return status, b
	}
	for _, c := range []struct {
		name, method, path, body string
		status                   int
		want                     string
	}{
		{"topk hit", "GET", "/v1/topk?x1=0&x2=25&k=2", "", 200,
			`{"offset":0,"results":[{"x":20,"score":2.5},{"x":10,"score":1.5}]}` + "\n"},
		{"topk empty", "GET", "/v1/topk?x1=100&x2=200&k=3", "", 200,
			`{"offset":0,"results":[]}` + "\n"},
		{"batch", "POST", "/v1/batch", `{"ops":[` +
			`{"op":"insert","x":40,"score":3.5},` +
			`{"op":"insert","x":10,"score":9.5},` +
			`{"op":"delete","x":99,"score":9.9},` +
			`{"op":"query","x1":0,"x2":50,"k":2,"offset":1},` +
			`{"op":"query","x1":100,"x2":200,"k":2}]}`, 200,
			`{"n":4,"results":[{"ok":true},` +
				`{"ok":false,"error":{"code":"duplicate_position","message":"position already present"}},` +
				`{"ok":false,"error":{"code":"not_found","message":"point not found"}},` +
				`{"ok":true,"results":[{"x":20,"score":2.5},{"x":10,"score":1.5}]},` +
				`{"ok":true}]}` + "\n"},
		{"error envelope", "POST", "/v1/insert", `{"x":20,"score":7}`, 409,
			`{"error":{"code":"duplicate_position","message":"position already present"}}` + "\n"},
		{"bad request", "GET", "/v1/topk?x1=a&x2=1&k=1", "", 400,
			`{"error":{"code":"bad_request","message":"need float x1, x2 and int k"}}` + "\n"},
		{"insert ack", "POST", "/v1/insert", `{"x":50,"score":4.5}`, 200,
			`{"n":5,"ok":true}` + "\n"},
		{"delete ack, found", "POST", "/v1/delete", `{"x":50,"score":4.5}`, 200,
			`{"found":true,"n":4}` + "\n"},
		{"delete ack, not found", "POST", "/v1/delete", `{"x":50,"score":4.5}`, 200,
			`{"found":false,"n":4}` + "\n"},
	} {
		status, got := call(c.method, c.path, c.body)
		if status != c.status || got != c.want {
			t.Errorf("%s: status %d, body\n%s\nwant status %d, body\n%s", c.name, status, got, c.status, c.want)
		}
	}

	req, err := http.NewRequest("GET", srv.URL+"/v1/topk?x1=0&x2=25&k=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.PointsType)
	want := "\x02\x00\x00\x00\x00\x00\x00\x00" + // count 2, little-endian
		"\x00\x00\x00\x00\x00\x00\x34\x40" + // x 20
		"\x00\x00\x00\x00\x00\x00\x04\x40" + // score 2.5
		"\x00\x00\x00\x00\x00\x00\x24\x40" + // x 10
		"\x00\x00\x00\x00\x00\x00\xf8\x3f" // score 1.5
	if status, ct, got := do(req); status != 200 || ct != wire.PointsType || got != want {
		t.Errorf("topk hit as points: status %d, Content-Type %q, body\n% x\nwant status 200, %q, body\n% x", status, ct, got, wire.PointsType, want)
	}

	// A mixed batch in the binary bodies: an applied insert, a
	// duplicate position, an absent delete and a query with results.
	ops := []wire.Op{
		{Op: "insert", X: 60, Score: 5.5},
		{Op: "insert", X: 10, Score: 8.5},
		{Op: "delete", X: 99, Score: 9.9},
		{Op: "query", X1: 0, X2: 50, K: 2},
	}
	opsBody := "\x04\x00\x00\x00\x00\x00\x00\x00" + // count 4, little-endian
		"\x01" + // insert
		"\x00\x00\x00\x00\x00\x00\x4e\x40" + // x 60
		"\x00\x00\x00\x00\x00\x00\x16\x40" + // score 5.5
		"\x01" + // insert
		"\x00\x00\x00\x00\x00\x00\x24\x40" + // x 10
		"\x00\x00\x00\x00\x00\x00\x21\x40" + // score 8.5
		"\x02" + // delete
		"\x00\x00\x00\x00\x00\xc0\x58\x40" + // x 99
		"\xcd\xcc\xcc\xcc\xcc\xcc\x23\x40" + // score 9.9
		"\x03" + // query
		"\x00\x00\x00\x00\x00\x00\x00\x00" + // x1 0
		"\x00\x00\x00\x00\x00\x00\x49\x40" + // x2 50
		"\x02\x00\x00\x00\x00\x00\x00\x00" + // k 2
		"\x00\x00\x00\x00\x00\x00\x00\x00" // offset 0
	if got := string(wire.AppendOps(nil, ops)); got != opsBody {
		t.Errorf("wire.AppendOps writes\n% x\nwant\n% x", got, opsBody)
	}
	itemsBody := "\x04\x00\x00\x00\x00\x00\x00\x00" + // count 4
		"\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00" + // applied, no points
		"\x01" + "\x18\x00\x00\x00\x00\x00\x00\x00" + "position already present" + // duplicate_position, 24-byte message
		"\x04" + "\x0f\x00\x00\x00\x00\x00\x00\x00" + "point not found" + // not_found, 15-byte message
		"\x00" + "\x02\x00\x00\x00\x00\x00\x00\x00" + // answered, 2 points
		"\x00\x00\x00\x00\x00\x00\x44\x40" + // x 40
		"\x00\x00\x00\x00\x00\x00\x0c\x40" + // score 3.5
		"\x00\x00\x00\x00\x00\x00\x34\x40" + // x 20
		"\x00\x00\x00\x00\x00\x00\x04\x40" // score 2.5
	if req, err = http.NewRequest("POST", srv.URL+"/v1/batch", strings.NewReader(opsBody)); err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.BatchType)
	if status, ct, got := do(req); status != 200 || ct != wire.BatchType || got != itemsBody {
		t.Errorf("batch as ops and items: status %d, Content-Type %q, body\n% x\nwant status 200, %q, body\n% x", status, ct, got, wire.BatchType, itemsBody)
	}
}
