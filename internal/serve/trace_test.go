package serve

// The differential tracing test the obs subsystem exists for: a
// gateway-issued trace ID must surface in the member processes'
// request logs AND in the gateway's own span tree, proving the ID
// propagated client → gateway → member RPC → member middleware and
// that the gateway recorded one span per member hop it made.

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// syncBuffer is a goroutine-safe log sink (member handlers log from
// net/http's per-connection goroutines).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func debugTelemetry(sink *syncBuffer, sample float64) *obs.Telemetry {
	return obs.New(obs.Options{
		Logger:     slog.New(slog.NewTextHandler(sink, &slog.HandlerOptions{Level: slog.LevelDebug})),
		SampleRate: sample,
	})
}

func TestTraceDifferential(t *testing.T) {
	var gwLog, m0Log, m1Log syncBuffer
	gwObs := debugTelemetry(&gwLog, 1) // sample every request
	memberObs := []*obs.Telemetry{debugTelemetry(&m0Log, 0), debugTelemetry(&m1Log, 0)}
	memberLogs := []*syncBuffer{&m0Log, &m1Log}
	gw, shutdown := bootTestGateway(t, gwObs, memberObs)
	defer shutdown()

	// Each member holds 200 of the 400 points, so k=5 is answered by the
	// top band (member 1) alone while k=300 walks down into member 0.
	run := func(clientID string, k int, wantMembers []int) {
		t.Helper()
		req, err := http.NewRequest("GET", fmt.Sprintf("%s/v1/topk?x1=0&x2=1000000&k=%d", gw.URL, k), nil)
		if err != nil {
			t.Fatal(err)
		}
		if clientID != "" {
			req.Header.Set(obs.TraceHeader, clientID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get(obs.TraceHeader)
		if id == "" {
			t.Fatal("gateway issued no trace ID")
		}
		if clientID != "" && id != clientID {
			t.Fatalf("gateway echoed %q, want the client's %q", id, clientID)
		}

		// The middleware finishes its trace, then logs the request, a
		// beat after the response body is on the wire — at the gateway
		// and at every member alike — so poll briefly before judging.
		logged := func(lg *syncBuffer) bool { return strings.Contains(lg.String(), "trace="+id) }
		var tree obs.TraceJSON
		for deadline := time.Now().Add(5 * time.Second); ; {
			done := getJSON(t, gw.URL+"/v1/trace/"+id, &tree) == 200 && logged(&gwLog)
			for _, sp := range tree.Root.Children {
				if sp.Addr != "" && len(sp.Children) == 0 {
					done = false
				}
			}
			for _, i := range wantMembers {
				done = done && logged(memberLogs[i])
			}
			if done || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}

		// Differential leg 1: the ID reached the gateway's request log
		// and that of every member the read asked, and no other.
		if !logged(&gwLog) {
			t.Errorf("gateway request log does not carry trace %s", id)
		}
		for i, lg := range memberLogs {
			if asked := slices.Contains(wantMembers, i); logged(lg) != asked {
				t.Errorf("member %d (asked: %v) request log and trace %s disagree:\n%s", i, asked, id, lg.String())
			}
		}

		// Differential leg 2: the gateway's span tree for the same ID
		// has one member-RPC span per band asked — and no merge span,
		// since the band answers concatenate — and, since /v1/trace
		// stitches, each RPC span must carry the member's own handler
		// subtree spliced beneath it.
		if tree.ID != id {
			t.Fatalf("trace tree ID %q, want %q", tree.ID, id)
		}
		rpcAddrs := map[string]bool{}
		for _, sp := range tree.Root.Children {
			switch {
			case sp.Name == "merge":
				t.Error("span tree has a merge span; band answers concatenate")
			case sp.Addr != "":
				if !strings.Contains(sp.Name, "/v1/topk") {
					t.Errorf("member span %q, want a /v1/topk RPC", sp.Name)
				}
				rpcAddrs[sp.Addr] = true
				// The spliced member subtree: handler root named like the
				// RPC, with the Store-op span recorded inside the member
				// process beneath it.
				if len(sp.Children) != 1 {
					t.Errorf("RPC span to %s has %d spliced subtrees, want 1: %+v", sp.Addr, len(sp.Children), sp.Children)
					continue
				}
				member := sp.Children[0]
				if member.Name != "GET /v1/topk" {
					t.Errorf("member subtree under %s rooted at %q, want the member handler span", sp.Addr, member.Name)
				}
				ops := 0
				for _, c := range member.Children {
					if c.Name == "store.topk" {
						ops++
					}
				}
				if ops != 1 {
					t.Errorf("member subtree under %s has %d store.topk spans, want 1: %+v", sp.Addr, ops, member.Children)
				}
			}
		}
		if len(rpcAddrs) != len(wantMembers) {
			t.Errorf("span tree covers %d members, want %d: %+v", len(rpcAddrs), len(wantMembers), tree.Root.Children)
		}
		if tree.Root.DurationUS <= 0 {
			t.Errorf("root span duration %dus, want > 0", tree.Root.DurationUS)
		}
	}

	// Gateway-issued ID (sampled at the gateway)...
	run("", 5, []int{1})
	// ...and a client-supplied ID, adopted end to end.
	run("client-supplied-trace-0042", 5, []int{1})
	// A read the top band cannot fill alone walks into the band below.
	run("client-supplied-trace-0043", 300, []int{0, 1})
}

// TestTraceNotFound: unknown IDs are a structured 404, and members
// (sample rate 0, no incoming header) hold no trace ring entries.
func TestTraceNotFound(t *testing.T) {
	srv := httptest.NewServer(New(testStore(t, 100), Options{}))
	defer srv.Close()
	var out struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if code := getJSON(t, srv.URL+"/v1/trace/nope", &out); code != 404 {
		t.Fatalf("status %d, want 404", code)
	}
	if out.Error.Code != "trace_not_found" {
		t.Fatalf("code %q, want trace_not_found", out.Error.Code)
	}
}

// failingValue makes json.Encoder.Encode fail without a broken socket.
type failingValue struct{}

func (failingValue) MarshalJSON() ([]byte, error) { return nil, fmt.Errorf("refusing to marshal") }

// TestWriteJSONLogsEncodeError: encode failures land in the structured
// logger instead of being dropped.
func TestWriteJSONLogsEncodeError(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	writeJSONLog(httptest.NewRecorder(), failingValue{}, logger)
	got := buf.String()
	if !strings.Contains(got, "response encode failed") || !strings.Contains(got, "refusing to marshal") {
		t.Fatalf("encode error not logged: %q", got)
	}
}
