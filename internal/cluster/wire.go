package cluster

// This file is the wire half of the client tier: the decoders for
// internal/serve's /v1 responses that only the client reads, and the
// mapping from the structured error envelope back to the library's
// sentinel errors, so a rejection that crossed the network is
// indistinguishable (via errors.Is) from one raised by a local
// backend. The shapes both ends speak live in internal/wire: the
// /v1/batch op and item, and the binary /v1/topk points body that
// node.topk asks members for, because a wide read carries thousands of
// points and decimal text was the largest cost of the hop.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/wire"
)

// ErrNodeDown reports that a member node could not serve a request:
// unreachable, timed out, returned a transport-level failure, or is
// currently ejected by the health checker. It is re-exported as
// topk.ErrNodeDown; match with errors.Is.
var ErrNodeDown = errors.New("cluster: node down")

// countResp is GET /v1/count. (GET /v1/topk is the points body, read
// by wire.ParsePoints; single-point /v1/insert and /v1/delete have no
// decoders here: every gateway update travels through /v1/batch, one
// request per band sub-batch.)
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

type batchReq struct {
	Ops []wire.Op `json:"ops"`
}

type batchResp struct {
	Results []wire.Item `json:"results"`
	N       int         `json:"n"`
}

// errBody is the structured error envelope.
type errBody struct {
	Error wire.Error `json:"error"`
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
