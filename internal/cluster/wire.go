package cluster

// This file is the wire half of the client tier: the JSON types
// mirroring internal/serve's /v1 responses, and the mapping from the
// structured error envelope back to the library's sentinel errors, so
// a rejection that crossed the network is indistinguishable (via
// errors.Is) from one raised by a local backend.

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/point"
)

// ErrNodeDown reports that a member node could not serve a request:
// unreachable, timed out, returned a transport-level failure, or is
// currently ejected by the health checker. It is re-exported as
// topk.ErrNodeDown; match with errors.Is.
var ErrNodeDown = errors.New("cluster: node down")

// resultJSON is one reported point. (Single-point /v1/insert and
// /v1/delete have no wire types here: every gateway update travels
// through /v1/batch, one request per band sub-batch.)
type resultJSON struct {
	X     float64 `json:"x"`
	Score float64 `json:"score"`
}

type topkResp struct {
	Results []resultJSON `json:"results"`
}

type countResp struct {
	Count int `json:"count"`
}

type statsResp struct {
	N          int   `json:"n"`
	Reads      int64 `json:"reads"`
	Writes     int64 `json:"writes"`
	BlocksLive int64 `json:"blocks_live"`
	BlocksPeak int64 `json:"blocks_peak"`
}

// rangeResp is GET /v1/range: the member's score band, open (infinite)
// ends encoded as null, plus its live count for the construction-time
// replica sanity check.
type rangeResp struct {
	Lo *float64 `json:"lo"`
	Hi *float64 `json:"hi"`
	N  int      `json:"n"`
}

func (r rangeResp) bounds() (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	if r.Lo != nil {
		lo = *r.Lo
	}
	if r.Hi != nil {
		hi = *r.Hi
	}
	return lo, hi
}

type epochResp struct {
	Epoch int64 `json:"epoch"`
}

// wireOp is one element of a POST /v1/batch request.
type wireOp struct {
	Op    string  `json:"op"`
	X     float64 `json:"x,omitempty"`
	Score float64 `json:"score,omitempty"`
	X1    float64 `json:"x1,omitempty"`
	X2    float64 `json:"x2,omitempty"`
	K     int     `json:"k,omitempty"`
}

// wireErr is the structured error envelope's payload.
type wireErr struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// wireItem is one element of a /v1/batch response.
type wireItem struct {
	OK      bool         `json:"ok"`
	Error   *wireErr     `json:"error,omitempty"`
	Results []resultJSON `json:"results,omitempty"`
}

type batchReq struct {
	Ops []wireOp `json:"ops"`
}

type batchResp struct {
	Results []wireItem `json:"results"`
	N       int        `json:"n"`
}

// errBody is the structured error envelope.
type errBody struct {
	Error wireErr `json:"error"`
}

// errFromCode maps a structured error code back to the sentinel the
// member's local store raised, preserving errors.Is across the wire.
// Unknown codes surface as plain errors (a member running newer code
// than the gateway), never as ErrNodeDown — the node answered, the
// request was just rejected.
func errFromCode(code, msg string) error {
	switch code {
	case "duplicate_position":
		return fmt.Errorf("%w (remote: %s)", core.ErrDuplicatePosition, msg)
	case "duplicate_score":
		return fmt.Errorf("%w (remote: %s)", core.ErrDuplicateScore, msg)
	case "invalid_point":
		return fmt.Errorf("%w (remote: %s)", core.ErrInvalidPoint, msg)
	case "not_found":
		return fmt.Errorf("%w (remote: %s)", core.ErrNotFound, msg)
	default:
		return fmt.Errorf("cluster: member rejected request: %s (%s)", msg, code)
	}
}

// appendPoints decodes wire results onto dst. Nil and empty in, nil
// out, so the gateway agrees byte-for-byte with local backends on
// no-hit queries.
func appendPoints(dst []point.P, rs []resultJSON) []point.P {
	if len(rs) == 0 {
		return dst
	}
	dst = slices.Grow(dst, len(rs))
	for _, r := range rs {
		dst = append(dst, point.P{X: r.X, Score: r.Score})
	}
	return dst
}

// sanitizeBound maps an infinite query bound to the widest finite
// float64. JSON cannot carry ±Inf, and every stored position is finite
// by the input contract, so [-MaxFloat64, +MaxFloat64] selects exactly
// the same points as (-Inf, +Inf) — the substitution is invisible in
// answers. NaN never reaches here (invalid queries are answered nil
// locally).
func sanitizeBound(x float64) float64 {
	if math.IsInf(x, -1) {
		return -math.MaxFloat64
	}
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}
