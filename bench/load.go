package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	topk "repro"
)

// senders is the number of client goroutines, and of connections to
// the gateway: one per core of the two-core host the bounds were
// measured on.
const senders = 2

// sample is one request of the timed window.
type sample struct {
	trace uint64
	kind  opKind
	lat   time.Duration // response read, minus the time the request was due
	late  time.Duration // sent, minus the time it was due
	k     int           // results a read returned
}

// segment is what one open-loop drive of a stack measured.
type segment struct {
	samples           []sample
	attempted, failed int
	errs              []string  // the first few failures, for the log
	timedOps          int       // requests of the timed window that completed
	from, to          time.Time // the timed window, until the last request ended
	mem               runtime.MemStats
	cpu               time.Duration // process CPU time over the timed window
	io                topk.Stats    // members' meter deltas over the timed window
	blocksLive        int64         // at the end
	live              int           // at the end
	batcher           topk.BatcherStats
	splits, merges    int64
}

// driver sends one workload's op stream to a gateway, open loop: slot i
// is due at start + i/rate, each sender takes the next slot, sleeps
// until it is due, and times the request from the due time.
type driver struct {
	w      workload
	in     *inputs
	answer []answer // per pool query; nil when reads are not checked
	base   string
	client *http.Client
	tr     *tracer

	mu      sync.Mutex
	acked   []topk.Result // acknowledged inserts, oldest first, not yet deleted
	victims []topk.Result
	live    map[float64]float64 // expected live set, x → score (writes only)
	failed  int
	errs    []string
}

func newDriver(w workload, in *inputs, answers []answer, base string, tr *tracer) *driver {
	d := &driver{w: w, in: in, answer: answers, base: base, tr: tr, victims: in.victims}
	d.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders},
	}
	if w.readShare < 1 {
		d.live = make(map[float64]float64, len(in.points))
		for _, p := range in.points {
			d.live[p.X] = p.Score
		}
	}
	return d
}

func (d *driver) fail(format string, args ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed++
	if len(d.errs) < 5 {
		d.errs = append(d.errs, fmt.Sprintf(format, args...))
	}
}

// drive runs the warm-up and the timed window on st and returns the
// measurements.
func (d *driver) drive(st *stack, warm, timed time.Duration) *segment {
	seg := &segment{}
	start := time.Now().Add(10 * time.Millisecond)
	timedFrom, end := start.Add(warm), start.Add(warm+timed)
	interval := 1e9 / d.w.rate
	var next atomic.Int64
	per := make([][]sample, senders)
	var attempted atomic.Int64
	var wg sync.WaitGroup
	for g := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var body topkBody
			for {
				i := int(next.Add(1) - 1)
				due := start.Add(time.Duration(float64(i) * interval))
				if i >= len(d.in.ops) || !due.Before(end) {
					return
				}
				sleepUntil(due)
				attempted.Add(1)
				s, ok := d.do(i, due, &buf, &body)
				if ok && !due.Before(timedFrom) {
					per[g] = append(per[g], s)
				}
			}
		}()
	}

	time.Sleep(time.Until(timedFrom))
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	io0, _ := st.meters()
	b0 := st.batched.BatcherStats()
	sp0, mg0 := st.lifecycle()
	wg.Wait()
	seg.from, seg.to = timedFrom, time.Now()
	seg.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&seg.mem)
	io1, live := st.meters()
	b1 := st.batched.BatcherStats()
	sp1, mg1 := st.lifecycle()

	seg.mem.Mallocs -= m0.Mallocs
	seg.mem.NumGC -= m0.NumGC
	seg.mem.PauseTotalNs -= m0.PauseTotalNs
	seg.io = topk.Stats{Reads: io1.Reads - io0.Reads, Writes: io1.Writes - io0.Writes}
	seg.blocksLive, seg.live = io1.BlocksLive, live
	seg.batcher = topk.BatcherStats{Flushes: b1.Flushes - b0.Flushes, Ops: b1.Ops - b0.Ops, MaxGroup: b1.MaxGroup}
	seg.splits, seg.merges = sp1-sp0, mg1-mg0
	for _, s := range per {
		seg.samples = append(seg.samples, s...)
	}
	seg.timedOps = len(seg.samples)
	if d.live != nil {
		d.checkFinal()
	}
	seg.attempted = int(attempted.Load())
	seg.failed, seg.errs = d.failed, d.errs
	d.client.CloseIdleConnections()
	return seg
}

// topkBody is the part of a /v1/topk response the client reads.
type topkBody struct {
	Results []topk.Result `json:"results"`
}

// do sends op i and checks the answer. The latency stops when the
// response body has been read; decoding and checking come after.
func (d *driver) do(i int, due time.Time, buf *bytes.Buffer, body *topkBody) (sample, bool) {
	o := d.in.ops[i]
	s := sample{trace: uint64(i) + 1, kind: o.kind}
	var req *http.Request
	var victim topk.Result
	switch o.kind {
	case opRead:
		q := d.in.queries[o.q]
		req, _ = http.NewRequest(http.MethodGet, d.base+"/v1/topk?"+url.Values{
			"x1": {fmtFloat(q.x1)}, "x2": {fmtFloat(q.x2)}, "k": {strconv.Itoa(q.k)},
		}.Encode(), nil)
	case opInsert:
		p := d.in.fresh[o.p]
		req, _ = http.NewRequest(http.MethodPost, d.base+"/v1/insert", pointBody(p))
	case opDelete:
		d.mu.Lock()
		switch {
		case len(d.acked) > 0:
			victim, d.acked = d.acked[0], d.acked[1:]
		case len(d.victims) > 0:
			victim, d.victims = d.victims[0], d.victims[1:]
		default:
			d.mu.Unlock()
			d.fail("op %d: nothing left to delete", i)
			return s, false
		}
		d.mu.Unlock()
		req, _ = http.NewRequest(http.MethodPost, d.base+"/v1/delete", pointBody(victim))
	}
	var sp span
	if d.tr != nil {
		sp = d.tr.begin("client", o.kind.String(), ref{trace: s.trace})
		setRefHeader(req.Header, sp.ref())
	}
	sent := time.Now()
	s.late = sent.Sub(due)
	resp, err := d.client.Do(req)
	if err != nil {
		d.fail("op %d (%v): %v", i, o.kind, err)
		return s, false
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	done := time.Now()
	s.lat = done.Sub(due)
	if d.tr != nil {
		sp.Start, sp.End = d.tr.at(sent), d.tr.at(done)
		d.tr.add(sp)
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		d.fail("op %d (%v): status %d, %v: %.200s", i, o.kind, resp.StatusCode, err, buf.Bytes())
		return s, false
	}

	switch o.kind {
	case opRead:
		q := d.in.queries[o.q]
		if err := json.Unmarshal(buf.Bytes(), body); err != nil {
			d.fail("op %d: bad body: %v", i, err)
			return s, false
		}
		s.k = len(body.Results)
		if d.answer != nil {
			if a := d.answer[o.q]; a.n != len(body.Results) || a.digest != digest(body.Results) {
				d.fail("op %d: query %+v: %d results differ from the oracle's %d", i, q, len(body.Results), a.n)
				return s, false
			}
		} else if err := wellFormed(q, body.Results); err != nil {
			d.fail("op %d: query %+v: %v", i, q, err)
			return s, false
		}
	case opInsert:
		var r struct{ OK bool }
		if err := json.Unmarshal(buf.Bytes(), &r); err != nil || !r.OK {
			d.fail("op %d: insert not acknowledged: %.200s", i, buf.Bytes())
			return s, false
		}
		p := d.in.fresh[o.p]
		d.mu.Lock()
		d.acked = append(d.acked, p)
		d.live[p.X] = p.Score
		d.mu.Unlock()
	case opDelete:
		var r struct{ Found bool }
		if err := json.Unmarshal(buf.Bytes(), &r); err != nil || !r.Found {
			d.fail("op %d: delete of a live point not found: %.200s", i, buf.Bytes())
			return s, false
		}
		d.mu.Lock()
		delete(d.live, victim.X)
		d.mu.Unlock()
	}
	return s, true
}

// checkFinal reads the whole live set back through the gateway once
// the load has stopped and compares it with preload ∪ inserted −
// deleted.
func (d *driver) checkFinal() {
	want := make([]topk.Result, 0, len(d.live))
	for x, s := range d.live {
		want = append(want, topk.Result{X: x, Score: s})
	}
	slices.SortFunc(want, func(a, b topk.Result) int { return cmp.Compare(b.Score, a.Score) })
	resp, err := d.client.Get(d.base + "/v1/topk?" + url.Values{
		"x1": {"0"}, "x2": {fmtFloat(xSpan)}, "k": {strconv.Itoa(len(want) + 1)},
	}.Encode())
	if err != nil {
		d.fail("final state: %v", err)
		return
	}
	defer resp.Body.Close()
	var body topkBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
		d.fail("final state: status %d, %v", resp.StatusCode, err)
		return
	}
	if !slices.Equal(body.Results, want) {
		d.fail("final state: gateway holds %d points, expected %d (or they differ)", len(body.Results), len(want))
	}
}

func pointBody(p topk.Result) io.Reader {
	return strings.NewReader(`{"x":` + fmtFloat(p.X) + `,"score":` + fmtFloat(p.Score) + `}`)
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
