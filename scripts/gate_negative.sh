#!/usr/bin/env sh
# Negative test of the //topk:nomalloc and atomics gates: copy the
# tree into a scratch dir, plant one violation per gate, and assert
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

merge_go="$scratch/repo/internal/merge/merge.go"
marker='	h := m.heap\[:0\]'

# 1. Static allocation site inside an annotated function: the
#    allocfree analyzer must flag the planted make.
copy_tree
grep -q "^$marker\$" "$merge_go" || {
	echo "gate-negative: mergeLoop marker line not found; update this script" >&2
	exit 1
}
sed -i "s/^$marker\$/\t_ = make([]int, 1)\n\th := m.heap[:0]/" "$merge_go"
expect_findings "planted make in //topk:nomalloc mergeLoop (allocfree)" \
	"$topkvet" ./internal/merge/

# 2. Compiler-visible escape, invisible to shape analysis: only
#    escapecheck (-gcflags=-m) can see the moved-to-heap local.
copy_tree
sed -i 's/^var mergerPool/var gateLeak *int\n\nvar mergerPool/' "$merge_go"
sed -i "s/^$marker\$/\tvar leak int\n\tgateLeak = \\&leak\n\th := m.heap[:0]/" "$merge_go"
expect_findings "planted heap escape in //topk:nomalloc mergeLoop (escapecheck)" \
	"$topkvet" escapecheck ./internal/merge/

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
#    the planted accessor returning a histogram stripe by value.
copy_tree
cat >>"$scratch/repo/internal/obs/hist.go" <<'EOF'

func gateCopyStripe(h *Histogram) stripe { return h.stripes[0] }
EOF
expect_findings "planted stripe copy in obs (atomicfield)" \
	"$topkvet" ./internal/obs/

echo "gate-negative: all planted violations were caught"
