package wire_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/point"
	"repro/internal/wire"
)

// edgeOps is a batch of every op kind over the edge values: inserts
// and deletes at every value, and queries with infinite, inverted and
// negative-zero bounds, k and offset at both ends of int64.
func edgeOps() []wire.Op {
	var ops []wire.Op
	for i, x := range edgeValues {
		ops = append(ops,
			wire.Op{Op: "insert", X: x, Score: edgeValues[(i+5)%len(edgeValues)]},
			wire.Op{Op: "delete", X: -x, Score: x})
	}
	return append(ops,
		wire.Op{Op: "query", X1: math.Inf(-1), X2: math.Inf(1), K: 5},
		wire.Op{Op: "query", X1: 3, X2: math.Copysign(0, -1), K: math.MaxInt64, Offset: math.MaxInt64},
		wire.Op{Op: "query", X1: 1e-7, X2: 1e21, K: -1, Offset: math.MinInt64},
		wire.Op{Op: "query"})
}

// edgeItems is an items body's worth of every outcome: applied ops,
// answered queries with no, one and many points, and a rejection with
// every code, one of them with an empty message.
func edgeItems() []wire.Item {
	items := []wire.Item{
		{OK: true},
		{OK: true, Results: edgePoints()},
		{OK: true, Results: edgePoints()[4:5]},
		{Error: &wire.Error{Code: wire.CodeInternal}},
	}
	for _, code := range []string{wire.CodeDuplicatePosition, wire.CodeDuplicateScore, wire.CodeInvalidPoint,
		wire.CodeNotFound, wire.CodeNodeDown, wire.CodeInternal, wire.CodeOutOfRange} {
		items = append(items, wire.Item{Error: &wire.Error{Code: code, Message: "rejected: " + code}})
	}
	return items
}

// sameOps reports whether got and want hold the same ops, floats bit
// for bit.
func sameOps(got, want []wire.Op) bool {
	if len(got) != len(want) {
		return false
	}
	bits := math.Float64bits
	for i, g := range got {
		w := want[i]
		if g.Op != w.Op || bits(g.X) != bits(w.X) || bits(g.Score) != bits(w.Score) ||
			bits(g.X1) != bits(w.X1) || bits(g.X2) != bits(w.X2) || g.K != w.K || g.Offset != w.Offset {
			return false
		}
	}
	return true
}

// sameItems reports whether got and want hold the same items, points
// bit for bit, nil and empty Results alike.
func sameItems(got, want []wire.Item) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		w := want[i]
		if g.OK != w.OK || (g.Error == nil) != (w.Error == nil) || !sameBits(g.Results, w.Results) {
			return false
		}
		if g.Error != nil && *g.Error != *w.Error {
			return false
		}
	}
	return true
}

// TestBatchRoundTrip: every op and item reads back as it was written,
// after what dst already held, and each item's Results is capped at
// its own points, so appending to it cannot overwrite the next item's.
func TestBatchRoundTrip(t *testing.T) {
	headOp := []wire.Op{{Op: "delete", X: 1, Score: 2}}
	ops, err := wire.ParseOps(wire.AppendOps(nil, edgeOps()), headOp)
	if err != nil || !sameOps(ops, append(headOp, edgeOps()...)) {
		t.Fatalf("ParseOps(AppendOps(ops)) = %v, %v; want %v", ops, err, edgeOps())
	}
	headItem := []wire.Item{{OK: true}}
	items, err := wire.ParseItems(wire.AppendItems(nil, edgeItems()), headItem)
	if err != nil || !sameItems(items, append(headItem, edgeItems()...)) {
		t.Fatalf("ParseItems(AppendItems(items)) = %v, %v; want %v", items, err, edgeItems())
	}
	next := items[3].Results[0]
	_ = append(items[2].Results, point.P{X: -1, Score: -1})
	if items[3].Results[0] != next {
		t.Fatal("appending to one item's Results overwrote the next item's")
	}
}

// tornOps are ops bodies ParseOps must refuse, cut from body, an ops
// body of at least two ops whose first is an update: cut inside the
// count, inside the first op and at its end, a byte short and a byte
// over, counts one over, one under and near 2^64, an unknown kind in
// place of the first, and nothing at all.
func tornOps(body []byte) [][]byte {
	unknown := bytes.Clone(body)
	unknown[8] = 9
	return [][]byte{
		body[:5],
		body[:8+9],
		body[:8+17],
		body[:len(body)-1],
		append(body[:len(body):len(body)], 0),
		withCount(body, binary.LittleEndian.Uint64(body)+1),
		withCount(body, binary.LittleEndian.Uint64(body)-1),
		withCount(body, math.MaxUint64),
		withCount(body[:8], math.MaxUint64-1),
		unknown,
		nil,
	}
}

// tornItems are items bodies ParseItems must refuse, cut from body, an
// items body of at least two items whose first holds points: cut inside
// the count, inside the first item's length and inside its first
// point, a byte short and a byte over, counts one over, one under and
// near 2^64, a point count near 2^64, an unknown code in place of the
// first, and nothing at all.
func tornItems(body []byte) [][]byte {
	unknown := bytes.Clone(body)
	unknown[8] = 200
	lying := bytes.Clone(body)
	binary.LittleEndian.PutUint64(lying[9:], math.MaxUint64/16+1)
	return [][]byte{
		body[:3],
		body[:8+5],
		body[:8+9+7],
		body[:len(body)-1],
		append(body[:len(body):len(body)], 0),
		withCount(body, binary.LittleEndian.Uint64(body)+1),
		withCount(body, binary.LittleEndian.Uint64(body)-1),
		withCount(body, math.MaxUint64),
		withCount(body[:8], math.MaxUint64-1),
		lying,
		unknown,
		nil,
	}
}

// TestParseBatchZeroAllocs: a torn ops or items body is an error that
// leaves dst as it was and allocates nothing, even when its count is
// near 2^64; a whole ops body parses into a dst with room for it
// without allocating.
func TestParseBatchZeroAllocs(t *testing.T) {
	opsBody := wire.AppendOps(nil, edgeOps())
	dst := make([]wire.Op, 0, len(edgeOps()))
	if allocs := testing.AllocsPerRun(20, func() { dst, _ = wire.ParseOps(opsBody, dst[:0]) }); allocs != 0 {
		t.Fatalf("ParseOps allocates %.1f times into a sized dst, want 0", allocs)
	}
	headOp := []wire.Op{{Op: "insert", X: 1, Score: 2}}
	for _, torn := range tornOps(opsBody) {
		got, err := wire.ParseOps(torn, headOp)
		if err == nil || !sameOps(got, headOp) {
			t.Fatalf("torn ops body % x: got %v, %v; want %v and an error", torn, got, err, headOp)
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = wire.ParseOps(torn, nil) }); allocs != 0 {
			t.Fatalf("torn ops body of %d bytes: %.0f allocations, want 0", len(torn), allocs)
		}
	}
	itemsBody := wire.AppendItems(nil, edgeItems()[1:])
	headItem := []wire.Item{{OK: true}}
	for _, torn := range tornItems(itemsBody) {
		got, err := wire.ParseItems(torn, headItem)
		if err == nil || !sameItems(got, headItem) {
			t.Fatalf("torn items body % x: got %v, %v; want %v and an error", torn, got, err, headItem)
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = wire.ParseItems(torn, nil) }); allocs != 0 {
			t.Fatalf("torn items body of %d bytes: %.0f allocations, want 0", len(torn), allocs)
		}
	}
}

// FuzzParseOps holds ParseOps, a member's /v1/batch decoder, to this:
// for any bytes it either fails and leaves dst at its input length, or
// consumes the whole body, which AppendOps writes back byte for byte.
func FuzzParseOps(f *testing.F) {
	body := wire.AppendOps(nil, edgeOps())
	f.Add(body)
	f.Add(wire.AppendOps(nil, nil))
	f.Add(wire.AppendOps(nil, edgeOps()[:1]))
	f.Add(wire.AppendOps(nil, edgeOps()[len(edgeOps())-2:]))
	for _, torn := range tornOps(body) {
		f.Add(torn)
	}
	head := []wire.Op{{Op: "insert", X: -1, Score: -2}}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := wire.ParseOps(body, head[:1:1])
		if err != nil {
			if !sameOps(got, head) {
				t.Fatalf("ParseOps(% x) failed with %v but returned %v, want dst %v", body, err, got, head)
			}
			return
		}
		if !sameOps(got[:1], head) {
			t.Fatalf("ParseOps(% x) overwrote dst: %v", body, got)
		}
		if re := wire.AppendOps(nil, got[1:]); !bytes.Equal(re, body) {
			t.Fatalf("ParseOps(% x) = %v, which re-encodes as % x", body, got[1:], re)
		}
	})
}

// FuzzParseItems holds ParseItems, the gateway's /v1/batch decoder, to
// the same: for any bytes it either fails and leaves dst at its input
// length, or consumes the whole body, which AppendItems writes back
// byte for byte.
func FuzzParseItems(f *testing.F) {
	body := wire.AppendItems(nil, edgeItems()[1:])
	f.Add(body)
	f.Add(wire.AppendItems(nil, nil))
	f.Add(wire.AppendItems(nil, edgeItems()[:1]))
	f.Add(wire.AppendItems(nil, edgeItems()[3:5]))
	for _, torn := range tornItems(body) {
		f.Add(torn)
	}
	head := []wire.Item{{Error: &wire.Error{Code: wire.CodeNotFound, Message: "head"}}}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := wire.ParseItems(body, head[:1:1])
		if err != nil {
			if !sameItems(got, head) {
				t.Fatalf("ParseItems(% x) failed with %v but returned %v, want dst %v", body, err, got, head)
			}
			return
		}
		if !sameItems(got[:1], head) {
			t.Fatalf("ParseItems(% x) overwrote dst: %v", body, got)
		}
		if re := wire.AppendItems(nil, got[1:]); !bytes.Equal(re, body) {
			t.Fatalf("ParseItems(% x) = %v, which re-encodes as % x", body, got[1:], re)
		}
	})
}
