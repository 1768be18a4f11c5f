#!/usr/bin/env sh
# Negative test of the //topk:nomalloc, atomics and label gates and of
# the allocation pins of the member hop and the router's write path:
# copy the tree into a scratch dir, plant one violation per gate, and
# assert the gate FAILS with findings (exit 1 exactly — an exit 2 would
# mean the plant broke the build, which proves nothing). A gate that
# cannot be shown to fail is not a gate.
set -eu

root=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT INT TERM

# A real binary, not `go run`: go run collapses every nonzero child
# exit to 1, which would make an operational failure (exit 2 — e.g. a
# plant that broke the build) indistinguishable from findings (exit 1).
topkvet="$scratch/topkvet"
(cd "$root" && go build -o "$topkvet" ./cmd/topkvet)

copy_tree() {
	rm -rf "$scratch/repo"
	mkdir -p "$scratch/repo"
	(cd "$root" && tar --exclude-vcs --exclude=.git -cf - .) | tar -C "$scratch/repo" -xf -
}

# expect_findings <description> <command...>: the command must exit 1
# (findings), not 0 (gate missed the plant) and not 2+ (plant or gate
# broke).
expect_findings() {
	desc=$1
	shift
	set +e
	(cd "$scratch/repo" && "$@" >/dev/null 2>&1)
	rc=$?
	set -e
	if [ "$rc" -ne 1 ]; then
		echo "gate-negative: $desc: expected exit 1 (findings), got $rc" >&2
		exit 1
	fi
	echo "gate-negative: $desc: correctly failed the gate"
}

point_go="$scratch/repo/internal/point/point.go"
marker='	for _, p := range src {'

# 1. Static allocation site inside an annotated function: the
#    allocfree analyzer must flag the planted make in the radix
#    kernel's scatter pass, which both sorts run: every wide read's
#    final sort by score and every load's sort by position.
copy_tree
grep -qF "$marker" "$point_go" || {
	echo "gate-negative: scatter marker line not found; update this script" >&2
	exit 1
}
sed -i "s/^$marker\$/\t_ = make([]int, 1)\n$marker/" "$point_go"
expect_findings "planted make in //topk:nomalloc scatter (allocfree)" \
	"$topkvet" ./internal/point/

# 2. Compiler-visible escape, invisible to shape analysis: only
#    escapecheck (-gcflags=-m) can see the moved-to-heap local.
copy_tree
sed -i 's/^const radixCutoff/var gateLeak *int\n\nconst radixCutoff/' "$point_go"
sed -i "s/^$marker\$/\tvar leak int\n\tgateLeak = \\&leak\n$marker/" "$point_go"
expect_findings "planted heap escape in //topk:nomalloc scatter (escapecheck)" \
	"$topkvet" escapecheck ./internal/point/

# 3. Static allocation site in the buffer pool's annotated hit path:
#    every block read of the engine goes through it.
em_go="$scratch/repo/internal/em/em.go"
hit_marker='	if old := d.slots\[i\].span; old != span {'
copy_tree
grep -q "^$hit_marker\$" "$em_go" || {
	echo "gate-negative: pool hit marker line not found; update this script" >&2
	exit 1
}
sed -i "s/^$hit_marker\$/\t_ = make([]int, 1)\n\tif old := d.slots[i].span; old != span {/" "$em_go"
expect_findings "planted make in //topk:nomalloc pool hit (allocfree)" \
	"$topkvet" ./internal/em/

# 4. By-value copy of an atomic-bearing struct: atomicfield must flag
#    the planted accessor returning a stripe of the histogram core by
#    value.
copy_tree
cat >>"$scratch/repo/internal/obs/hist.go" <<'EOF'

func gateCopyStripe(h *hist) stripe { return h.stripes[0] }
EOF
expect_findings "planted stripe copy in obs (atomicfield)" \
	"$topkvet" ./internal/obs/

# 5. Request-derived op label on the op timer serve runs around every
#    Store call: boundedlabel must flag the planted path label.
serve_go="$scratch/repo/internal/serve/serve.go"
count_marker='t.TimeOpCtx(r.Context(), "count")'
copy_tree
grep -qF "$count_marker" "$serve_go" || {
	echo "gate-negative: /v1/count op timer marker not found; update this script" >&2
	exit 1
}
sed -i 's/t\.TimeOpCtx(r\.Context(), "count")/t.TimeOpCtx(r.Context(), r.URL.Path)/' "$serve_go"
expect_findings "planted request-derived TimeOpCtx label in /v1/count (boundedlabel)" \
	"$topkvet" ./internal/serve/

# 6. An encoding/json round trip put back on the gateway's /v1/batch
#    hop: TestClusterInsertAllocs pins the allocations of a warm
#    single-op Cluster.Insert and must fail. The test binary is built
#    before it runs, so a plant that broke the build stops the script
#    here rather than passing as a failed test.
client_go="$scratch/repo/internal/cluster/client.go"
items_marker='	if len(items) != nops {'
copy_tree
grep -qxF "$items_marker" "$client_go" || {
	echo "gate-negative: /v1/batch items marker line not found; update this script" >&2
	exit 1
}
sed -i "s/^$items_marker\$/\tif b, err := json.Marshal(items); err == nil {\n\t\t_ = json.Unmarshal(b, \&items)\n\t}\n$items_marker/" "$client_go"
(cd "$scratch/repo" && go test -c -o "$scratch/serve.test" ./internal/serve/)
expect_findings "planted encoding/json round trip on the /v1/batch hop (TestClusterInsertAllocs)" \
	"$scratch/serve.test" -test.run '^TestClusterInsertAllocs$' -test.count=1

# 7. An http.Client put back on the member hop, in node.do, which every
#    TopK takes: its redirect machinery costs allocations a member RPC
#    never uses, so TestClusterTopKAllocs, which pins the allocations of
#    a warm single-member Cluster.TopK, must fail. Built as in plant 6.
rt_marker='	resp, err := n.rt.RoundTrip(req)'
copy_tree
grep -qxF "$rt_marker" "$client_go" || {
	echo "gate-negative: member hop RoundTrip marker line not found; update this script" >&2
	exit 1
}
sed -i "0,/^$rt_marker\$/s//\tresp, err := (\&http.Client{Transport: n.rt}).Do(req)/" "$client_go"
(cd "$scratch/repo" && go test -c -o "$scratch/serve.test" ./internal/serve/)
expect_findings "planted http.Client on the member hop (TestClusterTopKAllocs)" \
	"$scratch/serve.test" -test.run '^TestClusterTopKAllocs$' -test.count=1

# 8. The map grouping put back on the router's one-shard write path,
#    which every single-op Insert and Delete and every one-op ApplyBatch
#    takes: TestRouterWriteAllocs, which pins the allocations of a warm
#    Insert plus Delete and of two one-op ApplyBatch calls, must fail.
#    Built as in plant 6.
shard_go="$scratch/repo/internal/shard/shard.go"
one_marker='		r.applyShard(t.shards[tasks[0].shard], tasks)'
copy_tree
grep -qxF "$one_marker" "$shard_go" || {
	echo "gate-negative: one-shard write path marker line not found; update this script" >&2
	exit 1
}
sed -i 's/^\t\tr\.applyShard(t\.shards\[tasks\[0\]\.shard\], tasks)$/\t\tgroups := make(map[int][]int, len(t.shards))\n\t\tfor i, tk := range tasks {\n\t\t\tgroups[tk.shard] = append(groups[tk.shard], i)\n\t\t}\n\t\t_ = groups\n&/' "$shard_go"
(cd "$scratch/repo" && go test -c -o "$scratch/shard.test" ./internal/shard/)
expect_findings "planted map grouping on the one-shard write path (TestRouterWriteAllocs)" \
	"$scratch/shard.test" -test.run '^TestRouterWriteAllocs$' -test.count=1

echo "gate-negative: all planted violations were caught"
