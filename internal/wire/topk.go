package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"repro/internal/point"
)

// TopK is the JSON body of a GET /v1/topk response: one page of results
// in descending score order, starting Offset points below the top. The
// field order is the key order on the wire, sorted as a map's would be;
// internal/serve's TestGoldenBytes pins the bytes.
type TopK struct {
	Offset  int       `json:"offset"`
	Results []point.P `json:"results"`
}

// PointsType is the media type of the binary /v1/topk body. A request
// whose Accept header is exactly PointsType gets the page as
// AppendPoints writes it, under this Content-Type; every other request
// gets TopK as JSON.
const PointsType = "application/x-topk-points"

// pointSize is the bytes one point takes in a points body: X, then
// Score.
const pointSize = 16

// errLength is ParsePoints' one error: a body torn anywhere, or
// carrying bytes past its last point, is not 8+16·count long.
var errLength = errors.New("wire: points body is not 8+16·count bytes long")

// AppendPoints appends the points body of pts to dst: the count as a
// little-endian uint64, then each point's math.Float64bits(X) and
// math.Float64bits(Score) as little-endian uint64s, so every float64
// crosses bit for bit.
func AppendPoints(dst []byte, pts []point.P) []byte {
	dst = slices.Grow(dst, 8+pointSize*len(pts))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(pts)))
	for _, p := range pts {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Score))
	}
	return dst
}

// ParsePoints appends the points of a points body to dst and returns
// the extended slice. The body must be exactly 8+16·count bytes; any
// other length is an error, and on error dst comes back unchanged. The
// length is checked before dst grows, once, by count, so a lying count
// allocates nothing.
func ParsePoints(body []byte, dst []point.P) ([]point.P, error) {
	if len(body) < 8 {
		return dst, errLength
	}
	pts := body[8:]
	if len(pts)%pointSize != 0 || uint64(len(pts)/pointSize) != binary.LittleEndian.Uint64(body) {
		return dst, errLength
	}
	out := slices.Grow(dst, len(pts)/pointSize)
	for ; len(pts) > 0; pts = pts[pointSize:] {
		out = append(out, point.P{
			X:     math.Float64frombits(binary.LittleEndian.Uint64(pts)),
			Score: math.Float64frombits(binary.LittleEndian.Uint64(pts[8:])),
		})
	}
	return out, nil
}
