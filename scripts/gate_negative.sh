#!/usr/bin/env sh
# Negative test of the //topk:nomalloc, atomics and label gates: copy
# the tree into a scratch dir, plant one violation per gate, and assert
# the gate FAILS with findings (exit 1 exactly — an exit 2 would mean
# the plant broke the build, which proves nothing). A gate that
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
#    allocfree analyzer must flag the planted make in the sort kernel's
#    scatter pass, which every wide read's final sort runs.
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

echo "gate-negative: all planted violations were caught"
