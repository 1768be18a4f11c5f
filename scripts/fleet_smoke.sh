#!/usr/bin/env sh
# End-to-end observability smoke over a real 3-member fleet: boot three
# topkd members plus a gateway as separate processes, write through the
# gateway, run a traced query, then assert (a) the stitched trace on
# the gateway shows every member's handler subtree spliced under its
# RPC span, and (b) /v1/metrics/fleet federates all three member pages.
# This is the process-level check the in-process httptest suites can't
# give: real listeners, real headers, real scrapes.
set -eu

root=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
scratch=$(mktemp -d)

base_port=${FLEET_SMOKE_PORT:-18080}
gw_port=$base_port
m1_port=$((base_port + 1))
m2_port=$((base_port + 2))
m3_port=$((base_port + 3))

pids=""
cleanup() {
	for pid in $pids; do
		kill "$pid" 2>/dev/null || true
	done
	for pid in $pids; do
		wait "$pid" 2>/dev/null || true
	done
	rm -rf "$scratch"
}
trap cleanup EXIT INT TERM

fail() {
	echo "fleet-smoke: FAIL: $1" >&2
	shift
	for f in "$@"; do
		echo "--- $f" >&2
		cat "$f" >&2 || true
	done
	exit 1
}

(cd "$root" && go build -o "$scratch/topkd" ./cmd/topkd)

# Three members splitting the score axis, plus the gateway in front.
"$scratch/topkd" -addr "127.0.0.1:$m1_port" -range :34 -n 0 >"$scratch/m1.log" 2>&1 &
pids="$pids $!"
"$scratch/topkd" -addr "127.0.0.1:$m2_port" -range 34:67 -n 0 >"$scratch/m2.log" 2>&1 &
pids="$pids $!"
"$scratch/topkd" -addr "127.0.0.1:$m3_port" -range 67: -n 0 >"$scratch/m3.log" 2>&1 &
pids="$pids $!"

wait_up() {
	i=0
	until curl -fsS "http://127.0.0.1:$1/v1/epoch" >/dev/null 2>&1; do
		i=$((i + 1))
		[ "$i" -le 100 ] || fail "port $1 never came up" "$scratch"/*.log
		sleep 0.1
	done
}
# The gateway validates its members at boot, so they must answer first.
for port in $m1_port $m2_port $m3_port; do
	wait_up "$port"
done
"$scratch/topkd" -addr "127.0.0.1:$gw_port" -trace-sample 1 \
	-gateway "127.0.0.1:$m1_port,127.0.0.1:$m2_port,127.0.0.1:$m3_port" \
	>"$scratch/gw.log" 2>&1 &
pids="$pids $!"
wait_up "$gw_port"

gw="http://127.0.0.1:$gw_port"

# Writes through the gateway land on the right bands.
for pair in '1 10' '2 50' '3 90'; do
	x=${pair% *}
	score=${pair#* }
	curl -fsS -X POST "$gw/v1/insert" \
		-d "{\"x\": $x, \"score\": $score}" >/dev/null ||
		fail "insert x=$x score=$score rejected" "$scratch"/*.log
done

# One traced query walking every band: each band holds one point in
# range, so k=3 is not filled before the bottom band.
trace_id="fleet-smoke-trace"
curl -fsS -H "X-Topkd-Trace: $trace_id" \
	"$gw/v1/topk?x1=0&x2=100&k=3" >"$scratch/topk.json"
jq -e '.results | length == 3' "$scratch/topk.json" >/dev/null ||
	fail "topk returned wrong results" "$scratch/topk.json"

# The stitched trace: one RPC span per member, each carrying the
# member's own handler subtree (name + at least one Store-op child).
# The member middleware finishes its local trace a beat after the RPC
# response, so allow a few retries before judging.
stitched=""
for _ in 1 2 3 4 5 6 7 8 9 10; do
	curl -fsS "$gw/v1/trace/$trace_id" >"$scratch/trace.json" || true
	if jq -e '
		[.root.children[] | select(.addr != null and .addr != "")] as $rpcs |
		($rpcs | length) == 3 and
		([$rpcs[] | .children | length] | min) >= 1 and
		([$rpcs[] | .children[0].name] | all(. == "GET /v1/topk")) and
		([$rpcs[] | .children[0].children[]?.name] | map(select(. == "store.topk")) | length) == 3
	' "$scratch/trace.json" >/dev/null 2>&1; then
		stitched=yes
		break
	fi
	sleep 0.2
done
[ -n "$stitched" ] || fail "stitched trace incomplete" "$scratch/trace.json" "$scratch/gw.log"
echo "fleet-smoke: stitched trace OK (3 member subtrees under their RPC spans)"

# Federated metrics: the gateway page merges all three member pages.
curl -fsS "$gw/v1/metrics/fleet" >"$scratch/fleet.prom"
grep -q '^topkd_fleet_members 3$' "$scratch/fleet.prom" ||
	fail "fleet page missing topkd_fleet_members 3" "$scratch/fleet.prom"
grep -q '^topkd_fleet_members_scraped 3$' "$scratch/fleet.prom" ||
	fail "fleet page missing topkd_fleet_members_scraped 3" "$scratch/fleet.prom"
nodes=$(grep -c '^topkd_points_live{node=' "$scratch/fleet.prom" || true)
[ "$nodes" -eq 3 ] || fail "fleet page has $nodes node-labeled live gauges, want 3" "$scratch/fleet.prom"
grep -q '^topkd_http_request_duration_seconds_bucket' "$scratch/fleet.prom" ||
	fail "fleet page lost the federated request histogram" "$scratch/fleet.prom"
echo "fleet-smoke: federated metrics OK (3 members merged)"

echo "fleet-smoke: PASS"
