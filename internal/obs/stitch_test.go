package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// gatewayTree builds the shape a gateway query leaves behind: a root
// with two member RPC spans (addr set) and a merge span, all carrying
// span IDs.
func gatewayTree() SpanJSON {
	return SpanJSON{
		SpanID: "root0000", Name: "GET /v1/topk",
		Children: []SpanJSON{
			{SpanID: "rpc1", Name: "GET /v1/topk", Addr: "http://m1"},
			{SpanID: "rpc2", Name: "GET /v1/topk", Addr: "http://m2"},
			{SpanID: "mrg1", Name: "merge"},
		},
	}
}

// TestStitch: member traces splice under the RPC span whose ID matches
// their ParentSpan; members with a missing or unknown parent are
// skipped, and the member subtree arrives intact (handler root plus
// its Store-op child).
func TestStitch(t *testing.T) {
	root := gatewayTree()
	members := []TraceJSON{
		{ParentSpan: "rpc1", Root: SpanJSON{
			SpanID: "m1root", Name: "GET /v1/topk",
			Children: []SpanJSON{{SpanID: "m1op", Name: "store.topk"}},
		}},
		{ParentSpan: "rpc2", Root: SpanJSON{SpanID: "m2root", Name: "GET /v1/topk"}},
		{ParentSpan: "", Root: SpanJSON{Name: "headerless"}},         // never spliced
		{ParentSpan: "gone", Root: SpanJSON{Name: "evicted-parent"}}, // unknown parent
	}
	if n := Stitch(&root, members); n != 2 {
		t.Fatalf("spliced = %d, want 2", n)
	}
	rpc1 := root.Children[0]
	if len(rpc1.Children) != 1 || rpc1.Children[0].Name != "GET /v1/topk" {
		t.Fatalf("rpc1 children = %+v, want the member handler root", rpc1.Children)
	}
	if kids := rpc1.Children[0].Children; len(kids) != 1 || kids[0].Name != "store.topk" {
		t.Fatalf("member subtree lost its Store-op child: %+v", kids)
	}
	if got := root.Children[1].Children; len(got) != 1 || got[0].SpanID != "m2root" {
		t.Fatalf("rpc2 children = %+v", got)
	}
	if got := root.Children[2].Children; len(got) != 0 {
		t.Fatalf("merge span grew children: %+v", got)
	}
}

// TestStitchManyUnderOneSpan: several member traces naming the same
// parent (retries) all land under it, after its original children.
func TestStitchManyUnderOneSpan(t *testing.T) {
	root := SpanJSON{
		SpanID: "r", Name: "root",
		Children: []SpanJSON{{SpanID: "rpc", Name: "rpc", Addr: "http://m1",
			Children: []SpanJSON{{SpanID: "orig", Name: "original-child"}}}},
	}
	var members []TraceJSON
	for i := 0; i < 3; i++ {
		members = append(members, TraceJSON{ParentSpan: "rpc",
			Root: SpanJSON{SpanID: fmt.Sprintf("m%d", i), Name: "attempt"}})
	}
	if n := Stitch(&root, members); n != 3 {
		t.Fatalf("spliced = %d, want 3", n)
	}
	kids := root.Children[0].Children
	if len(kids) != 4 || kids[0].Name != "original-child" {
		t.Fatalf("children = %+v, want original first then 3 attempts", kids)
	}
}

// TestSpanAddrs: distinct non-empty addresses in first-visit order —
// the stitcher's fan-out list.
func TestSpanAddrs(t *testing.T) {
	root := SpanJSON{
		Children: []SpanJSON{
			{Addr: "http://m1"},
			{Addr: "http://m2", Children: []SpanJSON{{Addr: "http://m1"}, {Addr: "http://m3"}}},
			{Name: "merge"},
		},
	}
	got := SpanAddrs(root)
	want := []string{"http://m1", "http://m2", "http://m3"}
	if len(got) != len(want) {
		t.Fatalf("addrs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("addrs = %v, want %v", got, want)
		}
	}
}

// TestSpanIDs: every started span carries a 16-hex ID, distinct from
// its siblings and root, and the JSON tree preserves them.
func TestSpanIDs(t *testing.T) {
	tr := newTrace("", "GET /v1/topk")
	a := tr.StartSpan("GET /v1/topk", "http://m1")
	b := tr.StartSpan("GET /v1/topk", "http://m2")
	a.End(nil)
	b.End(nil)
	if a.ID() == "" || len(a.ID()) != 16 || a.ID() == b.ID() {
		t.Fatalf("span IDs a=%q b=%q, want distinct 16-hex", a.ID(), b.ID())
	}
	var nilSpan *Span
	if nilSpan.ID() != "" {
		t.Fatal("nil span ID should be empty")
	}
	tree := tr.Tree()
	if tree.Root.SpanID == "" || tree.Root.Children[0].SpanID != a.ID() {
		t.Fatalf("tree lost span IDs: %+v", tree.Root)
	}
}

// TestRingEvictionsCounter: the ring counts every overwrite, including
// same-ID replacement, and the tracer surfaces it.
func TestRingEvictionsCounter(t *testing.T) {
	r := NewRing[*Trace](2)
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("t%d", i)
		r.Put(id, &Trace{ID: id, root: &Span{}})
	}
	if got := r.Evictions(); got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
	tr := NewTracer(0, 1)
	tr.Finish(tr.Start("a", "x"), 200)
	tr.Finish(tr.Start("b", "x"), 200)
	if got := tr.RingEvictions(); got != 1 {
		t.Fatalf("tracer evictions = %d, want 1", got)
	}
}

// TestMiddlewareAdoptsParentSpan: a request arriving with both trace
// and parent-span headers produces a finished trace whose ParentSpan
// is the caller's span ID — the member half of the stitching contract.
func TestMiddlewareAdoptsParentSpan(t *testing.T) {
	tel := New(Options{})
	h := tel.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))

	req := httptest.NewRequest("GET", "/v1/topk", nil)
	req.Header.Set(TraceHeader, "stitch-test")
	req.Header.Set(ParentSpanHeader, "cafe0123cafe0123")
	h.ServeHTTP(httptest.NewRecorder(), req)

	tr := tel.Tracer.Get("stitch-test")
	if tr == nil {
		t.Fatal("trace not retained")
	}
	if tr.ParentSpan != "cafe0123cafe0123" {
		t.Fatalf("ParentSpan = %q, want the header value", tr.ParentSpan)
	}
	if got := tr.Tree().ParentSpan; got != "cafe0123cafe0123" {
		t.Fatalf("TraceJSON.ParentSpan = %q", got)
	}

	// Without the header the field stays empty (the gateway's own root).
	req2 := httptest.NewRequest("GET", "/v1/topk", nil)
	req2.Header.Set(TraceHeader, "no-parent")
	h.ServeHTTP(httptest.NewRecorder(), req2)
	if tr2 := tel.Tracer.Get("no-parent"); tr2 == nil || tr2.ParentSpan != "" {
		t.Fatalf("headerless request got ParentSpan %v", tr2)
	}
}
