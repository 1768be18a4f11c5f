package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"repro/internal/point"
)

// BatchType is the media type of the binary /v1/batch bodies. A
// request whose Content-Type is BatchType carries an ops body
// (AppendOps, ParseOps) and is answered with an items body (AppendItems,
// ParseItems) under the same Content-Type; every other request is JSON
// both ways.
//
// Both bodies open with their element count as a little-endian uint64.
// An op is one kind byte, then X and Score (insert, delete) or X1, X2,
// K and Offset (query), floats as math.Float64bits and ints as int64,
// all little-endian: 17 or 33 bytes. An item is one outcome code byte,
// then for code 0 (an applied op or an answered query) its points as a
// points body, and for a rejection the length of its message as a
// little-endian uint64, then the message.
const BatchType = "application/x-topk-batch"

// The op kinds of an ops body, and the bytes one op of each takes.
const (
	kindInsert = 1
	kindDelete = 2
	kindQuery  = 3

	updateSize = 1 + 16
	querySize  = 1 + 32
)

// The outcome codes of a rejected /v1/batch item: the closed set a
// member's store errors map to, plus out_of_range for an insert outside
// the member's band. Unknown errors map to CodeInternal.
const (
	CodeDuplicatePosition = "duplicate_position"
	CodeDuplicateScore    = "duplicate_score"
	CodeInvalidPoint      = "invalid_point"
	CodeNotFound          = "not_found"
	CodeNodeDown          = "node_down"
	CodeInternal          = "internal"
	CodeOutOfRange        = "out_of_range"
)

// codes is the outcome code each byte of an items body stands for;
// byte 0 is an applied op or an answered query.
var codes = [...]string{"", CodeDuplicatePosition, CodeDuplicateScore, CodeInvalidPoint,
	CodeNotFound, CodeNodeDown, CodeInternal, CodeOutOfRange}

// codeByte is the byte of code in an items body; a code outside the
// closed set travels as CodeInternal's.
func codeByte(code string) byte {
	for i := 1; i < len(codes); i++ {
		if codes[i] == code {
			return byte(i)
		}
	}
	return codeByte(CodeInternal)
}

// The errors of ParseOps and ParseItems: a body torn anywhere, carrying
// bytes past its last element, whose count is not the number of
// elements it holds, or holding an op kind or outcome code outside the
// closed sets.
var (
	errOps   = errors.New("wire: ops body is torn, overlong or holds an unknown op kind")
	errItems = errors.New("wire: items body is torn, overlong or holds an unknown outcome code")
)

// AppendCount appends n, the count that opens an ops or an items body,
// as a little-endian uint64.
func AppendCount(dst []byte, n int) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(n))
}

// AppendOp appends one op of an ops body. Op.Op must be "insert",
// "delete" or "query"; any other op is appended as a lone kind byte 0,
// which ParseOps refuses.
func AppendOp(dst []byte, op Op) []byte {
	le := binary.LittleEndian
	switch op.Op {
	case "insert", "delete":
		kind := byte(kindInsert)
		if op.Op == "delete" {
			kind = kindDelete
		}
		dst = le.AppendUint64(append(dst, kind), math.Float64bits(op.X))
		return le.AppendUint64(dst, math.Float64bits(op.Score))
	case "query":
		dst = le.AppendUint64(append(dst, kindQuery), math.Float64bits(op.X1))
		dst = le.AppendUint64(dst, math.Float64bits(op.X2))
		dst = le.AppendUint64(dst, uint64(op.K))
		return le.AppendUint64(dst, uint64(op.Offset))
	}
	return append(dst, 0)
}

// OpsLen returns the most bytes an ops body of n ops takes, all of
// them queries.
func OpsLen(n int) int { return 8 + querySize*n }

// AppendOps appends the ops body of ops to dst: their count, then each
// op as AppendOp writes it.
func AppendOps(dst []byte, ops []Op) []byte {
	dst = slices.Grow(dst, OpsLen(len(ops)))
	dst = AppendCount(dst, len(ops))
	for _, op := range ops {
		dst = AppendOp(dst, op)
	}
	return dst
}

// ParseOps appends the ops of an ops body to dst and returns the
// extended slice; on error dst comes back unchanged. The whole body is
// checked, kind by kind and length by length, before dst grows, once,
// by the count, so a torn body, a lying count or an unknown kind
// allocates nothing.
func ParseOps(body []byte, dst []Op) ([]Op, error) {
	if len(body) < 8 {
		return dst, errOps
	}
	count, rest := binary.LittleEndian.Uint64(body), body[8:]
	for i := uint64(0); i < count; i++ {
		size := opSize(rest)
		if size == 0 || len(rest) < size {
			return dst, errOps
		}
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return dst, errOps
	}
	le := binary.LittleEndian
	out := slices.Grow(dst, int(count))
	for rest = body[8:]; len(rest) > 0; rest = rest[opSize(rest):] {
		switch rest[0] {
		case kindInsert:
			out = append(out, Op{Op: "insert", X: float64At(rest, 1), Score: float64At(rest, 9)})
		case kindDelete:
			out = append(out, Op{Op: "delete", X: float64At(rest, 1), Score: float64At(rest, 9)})
		case kindQuery:
			out = append(out, Op{Op: "query", X1: float64At(rest, 1), X2: float64At(rest, 9),
				K: int(int64(le.Uint64(rest[17:]))), Offset: int(int64(le.Uint64(rest[25:])))})
		}
	}
	return out, nil
}

// float64At reads the little-endian float64 bits at b[at:].
func float64At(b []byte, at int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[at:]))
}

// opSize is the size of the op that opens b by its kind byte, or 0 when
// b is empty or opens with an unknown kind.
func opSize(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	switch b[0] {
	case kindInsert, kindDelete:
		return updateSize
	case kindQuery:
		return querySize
	}
	return 0
}

// AppendItems appends the items body of items to dst: their count,
// then per item its outcome code, with its Results as points when it
// has no Error, or its Error's message when it has one.
func AppendItems(dst []byte, items []Item) []byte {
	size := 8
	for _, it := range items {
		size += 9 + pointSize*len(it.Results)
		if it.Error != nil {
			size += len(it.Error.Message)
		}
	}
	dst = AppendCount(slices.Grow(dst, size), len(items))
	for _, it := range items {
		if it.Error == nil {
			dst = AppendPoints(append(dst, 0), it.Results)
			continue
		}
		dst = AppendCount(append(dst, codeByte(it.Error.Code)), len(it.Error.Message))
		dst = append(dst, it.Error.Message...)
	}
	return dst
}

// ParseItems appends the items of an items body to dst and returns the
// extended slice; on error dst comes back unchanged. Code 0 reads back
// as OK with the item's points as Results (nil when there are none),
// every other code as an Error. The whole body is checked before
// anything is reserved: dst grows once, by the count, and the points of
// every item share one allocation, each item's Results capped at its
// own, so a torn body, a lying count or an unknown code allocates
// nothing.
func ParseItems(body []byte, dst []Item) ([]Item, error) {
	if len(body) < 8 {
		return dst, errItems
	}
	le := binary.LittleEndian
	count, rest := le.Uint64(body), body[8:]
	points := 0
	for i := uint64(0); i < count; i++ {
		if len(rest) < 9 || int(rest[0]) >= len(codes) {
			return dst, errItems
		}
		// n counts points after code 0 and message bytes after a
		// rejection.
		ok, n, width := rest[0] == 0, le.Uint64(rest[1:]), uint64(1)
		if ok {
			width = pointSize
		}
		rest = rest[9:]
		if n > uint64(len(rest))/width {
			return dst, errItems
		}
		rest = rest[n*width:]
		if ok {
			points += int(n)
		}
	}
	if len(rest) != 0 {
		return dst, errItems
	}
	out := slices.Grow(dst, int(count))
	var pts []point.P
	if points > 0 {
		pts = make([]point.P, 0, points)
	}
	for rest = body[8:]; len(rest) > 0; {
		code, n := rest[0], int(le.Uint64(rest[1:]))
		if code != 0 {
			out = append(out, Item{Error: &Error{Code: codes[code], Message: string(rest[9 : 9+n])}})
			rest = rest[9+n:]
			continue
		}
		var res []point.P
		if n > 0 {
			from := len(pts)
			pts, _ = ParsePoints(rest[1:9+pointSize*n], pts)
			res = pts[from:len(pts):len(pts)]
		}
		out = append(out, Item{OK: true, Results: res})
		rest = rest[9+pointSize*n:]
	}
	return out, nil
}
