package workload

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/point"
)

// FuzzOp is one op of a decoded fuzz stream. A Delete removes the live
// point at index Pick modulo the live size; with nothing live it
// inserts P instead. Batch asks a Store to apply the op through
// ApplyBatch rather than Insert or Delete.
type FuzzOp struct {
	Delete bool
	Batch  bool
	Pick   int
	P      point.P
}

// DecodeFuzz splits fuzz input into a bulk-load set of at most 512
// points with distinct positions and distinct scores, and the op
// stream that follows it. The layout is a little-endian uint16 point
// count (mod 513), then four bytes per point (int16 x, uint16 score; a
// point repeating an earlier x or score is skipped), then three bytes
// per op, at most 512 ops: a kind byte and a uint16 operand v. Kinds
// 0 mod 4 delete; the others insert (int16(v)+0.5, kind·65536+v+0.5).
// Half-integer coordinates never collide with the loaded points, but
// inserts can collide with each other.
func DecodeFuzz(data []byte) (pts []point.P, ops []FuzzOp) {
	if len(data) < 2 {
		return nil, nil
	}
	n := int(binary.LittleEndian.Uint16(data)) % 513
	data = data[2:]
	xs, scores := map[float64]bool{}, map[float64]bool{}
	for ; n > 0 && len(data) >= 4; n, data = n-1, data[4:] {
		p := point.P{
			X:     float64(int16(binary.LittleEndian.Uint16(data))),
			Score: float64(binary.LittleEndian.Uint16(data[2:])),
		}
		if !xs[p.X] && !scores[p.Score] {
			xs[p.X], scores[p.Score] = true, true
			pts = append(pts, p)
		}
	}
	for data = data[:min(len(data), 3*512)]; len(data) >= 3; data = data[3:] {
		kind, v := data[0], binary.LittleEndian.Uint16(data[1:])
		ops = append(ops, FuzzOp{
			Delete: kind%4 == 0,
			Batch:  kind&4 != 0,
			Pick:   int(v),
			P:      point.P{X: float64(int16(v)) + 0.5, Score: float64(kind)*65536 + float64(v) + 0.5},
		})
	}
	return pts, ops
}

// FuzzSeed lays out n random points followed by the op bytes, in
// DecodeFuzz's layout, for a fuzz corpus.
func FuzzSeed(n int, seed int64, ops []byte) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := binary.LittleEndian.AppendUint16(nil, uint16(n))
	for range n {
		out = binary.LittleEndian.AppendUint32(out, rng.Uint32())
	}
	return append(out, ops...)
}
