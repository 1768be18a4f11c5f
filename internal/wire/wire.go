// Package wire declares the /v1 bodies that both ends of the HTTP tier
// speak: internal/serve decodes Op and encodes Item, Error, the
// /v1/topk JSON page and the two binary answers; internal/cluster
// encodes ops and decodes items, Error and the points body. A point
// travels as point.P, whose JSON tags are the wire spelling, so nothing
// here converts.
//
// A gateway speaks fixed-width little-endian binary to its members on
// both hops, since they ship from one build. It asks for GET /v1/topk
// with Accept: PointsType and reads the points body (AppendPoints,
// ParsePoints): a wide read returns thousands of points, and writing
// each float as decimal text at the member and parsing it back at the
// gateway was the largest cost of that hop. It sends POST /v1/batch as
// an ops body under Content-Type: BatchType and reads the items body
// back (AppendOps, ParseOps, AppendItems, ParseItems): every write it
// forwards crosses that hop, where four reflective encoding/json calls
// had cost a single-op insert 37 of its 147 allocations. Every other
// client gets JSON: the /v1/topk page from AppendTopK, without
// reflection and byte for byte as encoding/json would write it, and
// every other body from encoding/json. Every binary parser here checks
// a body's length before it reserves anything, so a torn body or a
// lying count allocates nothing.
package wire

import "repro/internal/point"

// Op is one element of a POST /v1/batch request: Op is "insert" or
// "delete" (X, Score), or "query" (X1, X2, K, optional Offset). Zero
// fields are omitted when encoding; decoding reads them back as zero.
type Op struct {
	Op     string  `json:"op"`
	X      float64 `json:"x,omitempty"`
	Score  float64 `json:"score,omitempty"`
	X1     float64 `json:"x1,omitempty"`
	X2     float64 `json:"x2,omitempty"`
	K      int     `json:"k,omitempty"`
	Offset int     `json:"offset,omitempty"`
}

// Error is the structured error payload, {"code":..,"message":..}: the
// body of every error envelope and of a rejected batch item.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Item is one element of a /v1/batch response, aligned with the
// request ops. Updates carry OK, plus Error when rejected; queries
// carry their Results. Error's Code is one of the Code constants.
type Item struct {
	OK      bool      `json:"ok"`
	Error   *Error    `json:"error,omitempty"`
	Results []point.P `json:"results,omitempty"`
}
