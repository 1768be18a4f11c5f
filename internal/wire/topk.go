package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strconv"

	"repro/internal/point"
)

// AppendTopK appends to dst the JSON body of a GET /v1/topk response:
// one page of results in descending score order, starting offset points
// below the top, as {"offset":…,"results":[{"x":…,"score":…},…]} and a
// newline. The bytes are those encoding/json's Encoder writes for the
// map {"offset": offset, "results": pts} with pts non-nil, so an empty
// page is [], and internal/serve's TestGoldenBytes pins them. Every
// coordinate must be finite, as every live point's is: encoding/json
// refuses ±Inf and NaN.
func AppendTopK(dst []byte, offset int, pts []point.P) []byte {
	dst = append(dst, `{"offset":`...)
	dst = strconv.AppendInt(dst, int64(offset), 10)
	dst = append(dst, `,"results":[`...)
	for i, p := range pts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONFloat(append(dst, `{"x":`...), p.X)
		dst = appendJSONFloat(append(dst, `,"score":`...), p.Score)
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// appendJSONFloat appends f as encoding/json writes a float64, the way
// ES6 prints a number: the shortest decimal that reads back as f, in
// plain notation when 1e-6 ≤ |f| < 1e21 or f is ±0, in exponent
// notation otherwise, with the exponent's leading zero dropped (1e-07
// becomes 1e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

// PointsType is the media type of the binary /v1/topk body. A request
// whose Accept header is exactly PointsType gets the page as
// AppendPoints writes it, under this Content-Type; every other request
// gets it as AppendTopK writes it.
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
