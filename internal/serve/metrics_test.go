package serve

// Scrape-cleanliness tests for /v1/metrics: a real Prometheus parser
// pass over the whole page — every sample belongs to a family with
// # HELP and # TYPE, histogram buckets are cumulative and end at
// le="+Inf" with _count equal to the +Inf bucket — run against all
// three backends (single, sharded, gateway), plus the optional-
// interface probes that decide which families each backend exports.

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	topk "repro"
	"repro/internal/obs"
	"repro/internal/workload"
)

// promSample is one parsed sample line.
type promSample struct {
	labels map[string]string
	value  float64
}

// promFamily is one metric family: its metadata and samples, in page
// order.
type promFamily struct {
	help, typ string
	samples   []promSample
}

// parseProm parses a Prometheus text-format page, failing the test on
// any malformed line or any sample that belongs to no announced family.
func parseProm(t *testing.T, body string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	family := func(sampleName string) *promFamily {
		if f, ok := fams[sampleName]; ok {
			return f
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(sampleName, suffix)
			if base != sampleName {
				if f, ok := fams[base]; ok && f.typ == "histogram" {
					return f
				}
			}
		}
		t.Fatalf("sample %q has no # HELP/# TYPE family", sampleName)
		return nil
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("malformed HELP line %q", line)
			}
			if fams[parts[0]] == nil {
				fams[parts[0]] = &promFamily{}
			}
			fams[parts[0]].help = parts[1]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown type in %q", line)
			}
			if fams[parts[0]] == nil {
				fams[parts[0]] = &promFamily{}
			}
			fams[parts[0]].typ = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		name, labels, value := parsePromSample(t, line)
		family(name).samples = append(family(name).samples, promSample{labels: labels, value: value})
	}
	for name, f := range fams {
		if f.help == "" {
			t.Errorf("family %s has no # HELP", name)
		}
		if f.typ == "" {
			t.Errorf("family %s has no # TYPE", name)
		}
	}
	return fams
}

// parsePromSample splits `name{k="v",...} value` (labels optional).
func parsePromSample(t *testing.T, line string) (string, map[string]string, float64) {
	t.Helper()
	rest := line
	name := rest
	labels := map[string]string{}
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		end := strings.IndexByte(rest, '}')
		if end < i {
			t.Fatalf("malformed labels in %q", line)
		}
		for _, pair := range strings.Split(rest[i+1:end], ",") {
			kv := strings.SplitN(pair, "=", 2)
			if len(kv) != 2 || !strings.HasPrefix(kv[1], `"`) || !strings.HasSuffix(kv[1], `"`) {
				t.Fatalf("malformed label %q in %q", pair, line)
			}
			labels[kv[0]] = strings.Trim(kv[1], `"`)
		}
		rest = rest[end+1:]
	} else {
		if i := strings.IndexByte(rest, ' '); i >= 0 {
			name = rest[:i]
			rest = rest[i:]
		} else {
			t.Fatalf("sample line %q has no value", line)
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("bad value in %q: %v", line, err)
	}
	return name, labels, v
}

// checkHistograms verifies every histogram family on the page: per
// label set, bucket bounds ascending and counts cumulative, the last
// bucket le="+Inf", and _count equal to the +Inf bucket.
func checkHistograms(t *testing.T, fams map[string]*promFamily) {
	t.Helper()
	for name, f := range fams {
		if f.typ != "histogram" {
			continue
		}
		key := func(labels map[string]string) string {
			parts := make([]string, 0, len(labels))
			for k, v := range labels {
				if k != "le" {
					parts = append(parts, k+"="+v)
				}
			}
			sort.Strings(parts)
			return strings.Join(parts, ",")
		}
		type series struct {
			les    []float64
			counts []float64
			sum    bool
			count  float64
			hasCnt bool
		}
		bySeries := map[string]*series{}
		get := func(labels map[string]string) *series {
			k := key(labels)
			if bySeries[k] == nil {
				bySeries[k] = &series{}
			}
			return bySeries[k]
		}
		// Sample suffix is recoverable from the labels: _bucket carries
		// le; _sum/_count are disambiguated by re-walking the raw page,
		// so instead track them at parse order using the presence of le.
		// We reparse from f.samples knowing WriteHistogramVec's order:
		// buckets..., sum, count per label set.
		for _, s := range f.samples {
			sr := get(s.labels)
			if le, ok := s.labels["le"]; ok {
				v := math.Inf(1)
				if le != "+Inf" {
					var err error
					if v, err = strconv.ParseFloat(le, 64); err != nil {
						t.Fatalf("%s: bad le %q", name, le)
					}
				}
				sr.les = append(sr.les, v)
				sr.counts = append(sr.counts, s.value)
			} else if !sr.sum {
				sr.sum = true
			} else {
				sr.count, sr.hasCnt = s.value, true
			}
		}
		for k, sr := range bySeries {
			if len(sr.les) == 0 {
				t.Fatalf("%s{%s}: no buckets", name, k)
			}
			if !math.IsInf(sr.les[len(sr.les)-1], 1) {
				t.Errorf("%s{%s}: last bucket le=%v, want +Inf", name, k, sr.les[len(sr.les)-1])
			}
			for i := 1; i < len(sr.les); i++ {
				if sr.les[i] <= sr.les[i-1] {
					t.Errorf("%s{%s}: le not ascending at %d", name, k, i)
				}
				if sr.counts[i] < sr.counts[i-1] {
					t.Errorf("%s{%s}: buckets not cumulative at le=%v (%v < %v)",
						name, k, sr.les[i], sr.counts[i], sr.counts[i-1])
				}
			}
			if !sr.sum || !sr.hasCnt {
				t.Errorf("%s{%s}: missing _sum or _count", name, k)
			}
			if inf := sr.counts[len(sr.counts)-1]; sr.count != inf {
				t.Errorf("%s{%s}: _count=%v != +Inf bucket %v", name, k, sr.count, inf)
			}
		}
	}
}

// driveTraffic exercises enough of the surface to populate the request
// and op histograms: reads, writes, a batch and a scrape.
func driveTraffic(t *testing.T, base string) {
	t.Helper()
	getJSON(t, base+"/v1/topk?x1=0&x2=1000000&k=5", nil)
	getJSON(t, base+"/v1/count?x1=0&x2=1000000", nil)
	postJSON(t, base+"/v1/insert", `{"x":-12345.5,"score":-9999.25}`, nil)
	postJSON(t, base+"/v1/batch", `{"ops":[
		{"op":"query","x1":0,"x2":1000,"k":3},
		{"op":"delete","x":-12345.5,"score":-9999.25}]}`, nil)
	getJSON(t, base+"/v1/stats", nil)
}

// scrape fetches /v1/metrics and returns the parsed families after the
// well-formedness checks.
func scrape(t *testing.T, base string) map[string]*promFamily {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d: %s", resp.StatusCode, body)
	}
	fams := parseProm(t, string(body))
	checkHistograms(t, fams)
	return fams
}

// bootTestGateway builds a two-member fleet over httptest plus a
// gateway handler in front of a topk.Cluster, all wired with the given
// telemetries (nil entries get defaults).
func bootTestGateway(t *testing.T, gwObs *obs.Telemetry, memberObs []*obs.Telemetry) (*httptest.Server, func()) {
	t.Helper()
	n := 400
	pts := workload.NewGen(7).Uniform(n, 1e6)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Score < pts[j].Score })
	cut := pts[n/2].Score
	cfg := topk.Config{BlockWords: 64, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048}
	var members []*httptest.Server
	var addrs []string
	bands := [][2]float64{{math.Inf(-1), cut}, {cut, math.Inf(1)}}
	for i, b := range bands {
		var own []topk.Result
		for _, p := range pts {
			if b[0] <= p.Score && p.Score < b[1] {
				own = append(own, p)
			}
		}
		st, err := topk.LoadSharded(topk.ShardedConfig{Config: cfg, Shards: 2}, own)
		if err != nil {
			t.Fatal(err)
		}
		var mo *obs.Telemetry
		if i < len(memberObs) {
			mo = memberObs[i]
		}
		members = append(members, httptest.NewServer(New(st, Options{Lo: b[0], Hi: b[1], Obs: mo})))
		addrs = append(addrs, members[i].URL)
	}
	cl, err := topk.NewCluster(topk.ClusterConfig{Members: addrs, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(New(cl, Options{Obs: gwObs}))
	return gw, func() {
		gw.Close()
		_ = cl.Close()
		for _, m := range members {
			m.Close()
		}
	}
}

// TestMetricsWellFormed runs the parser pass on all three backends.
func TestMetricsWellFormed(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		idx, err := topk.New(topk.Config{BlockWords: 64, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(New(LockedIndex(idx), Options{}))
		defer srv.Close()
		driveTraffic(t, srv.URL)
		fams := scrape(t, srv.URL)
		for _, name := range []string{
			"topkd_points_live",
			"topkd_http_request_duration_seconds",
			"topkd_store_op_duration_seconds",
			"topkd_http_in_flight_requests",
			"topkd_go_goroutines",
		} {
			if fams[name] == nil {
				t.Errorf("single backend missing family %s", name)
			}
		}
		// A single Index has no shards, no topology, no cluster.
		for _, name := range []string{"topkd_shards", "topkd_topology_epoch", "topkd_cluster_nodes", "topkd_cluster_read_failovers_total", "topkd_cluster_rpc_duration_seconds"} {
			if fams[name] != nil {
				t.Errorf("single backend unexpectedly exports %s", name)
			}
		}
		// The traffic above must actually have landed in the histograms.
		if f := fams["topkd_http_request_duration_seconds"]; f != nil && len(f.samples) == 0 {
			t.Error("request histogram empty after traffic")
		}
	})

	t.Run("sharded", func(t *testing.T) {
		srv := httptest.NewServer(New(testStore(t, 400), Options{}))
		defer srv.Close()
		driveTraffic(t, srv.URL)
		fams := scrape(t, srv.URL)
		for _, name := range []string{"topkd_shards", "topkd_topology_epoch", "topkd_store_op_duration_seconds"} {
			if fams[name] == nil {
				t.Errorf("sharded backend missing family %s", name)
			}
		}
		if fams["topkd_cluster_read_failovers_total"] != nil {
			t.Error("sharded backend unexpectedly exports the failover counter")
		}
	})

	t.Run("gateway", func(t *testing.T) {
		gw, shutdown := bootTestGateway(t, nil, nil)
		defer shutdown()
		driveTraffic(t, gw.URL)
		fams := scrape(t, gw.URL)
		for _, name := range []string{
			"topkd_cluster_nodes",
			"topkd_cluster_nodes_ejected",
			"topkd_cluster_read_failovers_total",
			"topkd_cluster_rpc_duration_seconds",
			"topkd_cluster_read_bands",
		} {
			if fams[name] == nil {
				t.Errorf("gateway missing family %s", name)
			}
		}
		// driveTraffic's two reads (a TopK and a one-query batch) each
		// asked at least one band.
		for _, s := range fams["topkd_cluster_read_bands"].samples {
			if s.labels["le"] == "+Inf" && s.value != 2 {
				t.Errorf("read_bands observed %v reads, want 2", s.value)
			}
		}
		// Per-member RPC histograms: both members must appear after the
		// fan-out traffic above.
		rpc := fams["topkd_cluster_rpc_duration_seconds"]
		membersSeen := map[string]bool{}
		for _, s := range rpc.samples {
			if m := s.labels["member"]; m != "" {
				membersSeen[m] = true
			}
		}
		if len(membersSeen) != 2 {
			t.Errorf("rpc histogram covers %d members, want 2 (%v)", len(membersSeen), membersSeen)
		}
		if f := fams["topkd_cluster_read_failovers_total"]; len(f.samples) != 1 || f.samples[0].value != 0 {
			t.Errorf("failovers counter = %+v, want one sample of 0 on a healthy fleet", f.samples)
		}
	})
}

// fetchPage GETs one metrics URL and returns the raw page body.
func fetchPage(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("%s status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestFleetMetrics: the gateway's /v1/metrics/fleet scrapes both
// members and merges their pages — the same parser pass as any single
// page, the fleet gauges present, gauges node-labeled per member, and
// counters/histograms equal to the per-member sums, exactly.
func TestFleetMetrics(t *testing.T) {
	gw, shutdown := bootTestGateway(t, nil, nil)
	defer shutdown()
	driveTraffic(t, gw.URL)

	// Fleet page first: a later direct member scrape bumps the members'
	// own metrics-endpoint histograms, but not the series compared below.
	fleetBody := fetchPage(t, gw.URL+"/v1/metrics/fleet")
	fams := parseProm(t, fleetBody)
	checkHistograms(t, fams)

	if f := fams["topkd_fleet_members"]; f == nil || len(f.samples) != 1 || f.samples[0].value != 2 {
		t.Fatalf("topkd_fleet_members = %+v, want one sample of 2", f)
	}
	if f := fams["topkd_fleet_members_scraped"]; f == nil || len(f.samples) != 1 || f.samples[0].value != 2 {
		t.Fatalf("topkd_fleet_members_scraped = %+v, want one sample of 2", f)
	}

	// Gauges fan out per member with a node label carrying the member
	// address; collect the fleet's view of the member roster from them.
	live := fams["topkd_points_live"]
	if live == nil || len(live.samples) != 2 {
		t.Fatalf("topkd_points_live = %+v, want 2 node-labeled samples", live)
	}
	var memberURLs []string
	liveByNode := map[string]float64{}
	for _, s := range live.samples {
		node := s.labels["node"]
		if node == "" {
			t.Fatalf("fleet gauge sample missing node label: %+v", s)
		}
		memberURLs = append(memberURLs, node)
		liveByNode[node] = s.value
	}

	// Exactness: re-scrape each member directly and check the fleet
	// page against per-member truth — gauges per node, counters and
	// histogram buckets as sums. The endpoint="topk" series are stable
	// between the two scrapes (only metrics-endpoint traffic happened).
	sumLive, sumTopkCount := 0.0, 0.0
	fleetTopkCount := 0.0
	if f := fams["topkd_http_request_duration_seconds"]; f != nil {
		for _, s := range f.samples {
			if s.labels["endpoint"] == "topk" && s.labels["le"] == "+Inf" {
				fleetTopkCount = s.value
			}
		}
	}
	for _, u := range memberURLs {
		mfams := parseProm(t, fetchPage(t, u+"/v1/metrics"))
		ml := mfams["topkd_points_live"]
		if ml == nil || len(ml.samples) != 1 {
			t.Fatalf("member %s points_live = %+v", u, ml)
		}
		if ml.samples[0].value != liveByNode[u] {
			t.Errorf("member %s live=%v but fleet says %v", u, ml.samples[0].value, liveByNode[u])
		}
		sumLive += ml.samples[0].value
		for _, s := range mfams["topkd_http_request_duration_seconds"].samples {
			if s.labels["endpoint"] == "topk" && s.labels["le"] == "+Inf" {
				sumTopkCount += s.value
			}
		}
	}
	if sumLive == 0 {
		t.Fatal("members report zero live points; fixture broken")
	}
	if fleetTopkCount == 0 || fleetTopkCount != sumTopkCount {
		t.Errorf("fleet topk request count %v, want the member sum %v (exact histogram merge)", fleetTopkCount, sumTopkCount)
	}

	// A member emitting garbage fails the federation loudly.
	// (Simulated at the obs layer in TestFederate; here we only check
	// the endpoint is absent on non-gateway backends.)
	srv := httptest.NewServer(New(testStore(t, 100), Options{}))
	defer srv.Close()
	var out struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if code := getJSON(t, srv.URL+"/v1/metrics/fleet", &out); code != 404 {
		t.Fatalf("non-gateway fleet scrape status %d, want 404", code)
	}
	if out.Error.Code != "not_gateway" {
		t.Fatalf("code %q, want not_gateway", out.Error.Code)
	}
}

// TestStatsLatencyQuantiles: /v1/stats reports per-endpoint p50/p95/p99
// estimated from the same histograms /v1/metrics exports.
func TestStatsLatencyQuantiles(t *testing.T) {
	srv := httptest.NewServer(New(testStore(t, 300), Options{}))
	defer srv.Close()
	driveTraffic(t, srv.URL)
	var out struct {
		Latency map[string]struct {
			Count uint64  `json:"count"`
			P50   float64 `json:"p50_ms"`
			P95   float64 `json:"p95_ms"`
			P99   float64 `json:"p99_ms"`
		} `json:"latency"`
	}
	if code := getJSON(t, srv.URL+"/v1/stats", &out); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	lat, ok := out.Latency["topk"]
	if !ok {
		t.Fatalf("no latency entry for topk: %v", out.Latency)
	}
	if lat.Count == 0 || lat.P50 <= 0 || lat.P99 < lat.P50 {
		t.Fatalf("implausible quantiles: %+v", lat)
	}
}
