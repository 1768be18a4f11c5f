package cluster

// This file is the wire half of the client tier: the JSON decoders for
// internal/serve's /v1 responses that only the client reads (count,
// stats, range, epoch and the error envelope), and the mapping from an
// outcome code back to the library's sentinel errors, so a rejection
// that crossed the network is indistinguishable (via errors.Is) from
// one raised by a local backend. The bodies of the two hops every read
// and write takes live in internal/wire, both fixed-width binary: the
// points body node.topk asks members for, and the ops and items bodies
// of node.batch. Floats, ±Inf query bounds included, cross both bit
// for bit.

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
// by wire.ParsePoints, and POST /v1/batch the items body, read by
// wire.ParseItems; single-point /v1/insert and /v1/delete have no
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

// errBody is the structured error envelope.
type errBody struct {
	Error wire.Error `json:"error"`
}

// errFromCode maps a structured error code back to the sentinel the
// member's local store raised, preserving errors.Is across the wire.
// Codes without a sentinel (out_of_range, internal, an envelope's
// bad_request) surface as plain errors, never as ErrNodeDown — the
// node answered, the request was just rejected.
func errFromCode(code, msg string) error {
	switch code {
	case wire.CodeDuplicatePosition:
		return fmt.Errorf("%w (remote: %s)", core.ErrDuplicatePosition, msg)
	case wire.CodeDuplicateScore:
		return fmt.Errorf("%w (remote: %s)", core.ErrDuplicateScore, msg)
	case wire.CodeInvalidPoint:
		return fmt.Errorf("%w (remote: %s)", core.ErrInvalidPoint, msg)
	case wire.CodeNotFound:
		return fmt.Errorf("%w (remote: %s)", core.ErrNotFound, msg)
	default:
		return fmt.Errorf("cluster: member rejected request: %s (%s)", msg, code)
	}
}
