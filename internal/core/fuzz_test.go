package core

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/point"
)

// FuzzBulkBuild bulk-builds an index over fuzzed points, then runs a
// fuzzed insert/delete stream on it. Before and after the stream,
// Query must equal point.TopK for k on both sides of KThreshold, so
// both the §2 tree and the §3.3 reduction answer, and every structure
// must pass CheckInvariants (the PST with token tracking on).
//
// Input layout: a little-endian uint16 point count (mod 513), then four
// bytes per point (int16 x, uint16 score; a repeated x or score is
// skipped), then three bytes per op, at most 512 ops: a kind byte and a
// uint16 operand.
func FuzzBulkBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add(seedInput(12, 1, []byte{1, 7, 0, 0, 3, 0, 2, 9, 9}))
	f.Add(seedInput(200, 2, make([]byte, 90)))
	f.Add(seedInput(512, 3, []byte{4, 1, 1, 5, 2, 2, 0, 3, 3, 8, 4, 4}))
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, ops := decodeBulkInput(data)
		opt := testOpts()
		opt.PST.TrackTokens = true
		ix := Bulk(newDisk(16), opt, pts)
		live := slices.Clone(pts)
		check := func(stage string) {
			t.Helper()
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			ranges := [][2]float64{{-1e9, 1e9}}
			for i := 0; i+1 < len(pts) && i < 6; i += 2 {
				lo, hi := min(pts[i].X, pts[i+1].X), max(pts[i].X, pts[i+1].X)
				ranges = append(ranges, [2]float64{lo, hi})
			}
			thr := ix.KThreshold()
			for _, r := range ranges {
				for _, k := range []int{1, thr / 2, thr - 1, thr, thr + 1, 2 * thr} {
					got := ix.Query(r[0], r[1], k)
					if want := point.TopK(live, r[0], r[1], k); !slices.Equal(got, want) {
						t.Fatalf("%s: Query(%v, %v, %d) = %v, want %v", stage, r[0], r[1], k, got, want)
					}
				}
			}
		}
		check("after Bulk")

		positions, scores := map[float64]bool{}, map[float64]bool{}
		for _, p := range live {
			positions[p.X], scores[p.Score] = true, true
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			kind, v := ops[0], binary.LittleEndian.Uint16(ops[1:])
			if kind%4 == 0 && len(live) > 0 {
				i := int(v) % len(live)
				p := live[i]
				if !ix.Delete(p) {
					t.Fatalf("Delete(%v) of a live point failed", p)
				}
				live = slices.Delete(live, i, i+1)
				delete(positions, p.X)
				delete(scores, p.Score)
				continue
			}
			// Half-integer coordinates never collide with decoded
			// points, but inserts can collide with each other.
			p := point.P{X: float64(int16(v)) + 0.5, Score: float64(kind)*65536 + float64(v) + 0.5}
			var want error
			switch {
			case positions[p.X]:
				want = ErrDuplicatePosition
			case scores[p.Score]:
				want = ErrDuplicateScore
			}
			if err := ix.Insert(p); !errors.Is(err, want) {
				t.Fatalf("Insert(%v) = %v, want %v", p, err, want)
			}
			if want == nil {
				live = append(live, p)
				positions[p.X], scores[p.Score] = true, true
			}
		}
		check("after the op stream")
	})
}

// decodeBulkInput splits fuzz input into at most 512 points with
// distinct x and distinct scores, and the op bytes that follow them.
func decodeBulkInput(data []byte) (pts []point.P, ops []byte) {
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
	return pts, data[:min(len(data), 3*512)]
}

// seedInput lays out n random points followed by ops, for the corpus.
func seedInput(n int, seed int64, ops []byte) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := binary.LittleEndian.AppendUint16(nil, uint16(n))
	for range n {
		out = binary.LittleEndian.AppendUint32(out, rng.Uint32())
	}
	return append(out, ops...)
}
