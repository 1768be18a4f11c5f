// Package wire declares the /v1 bodies that both ends of the HTTP tier
// speak: internal/serve decodes Op and encodes Item, Error, TopK and
// the points body; internal/cluster encodes Op and decodes Item, Error
// and the points body. A point travels as point.P, whose JSON tags are
// the wire spelling, so nothing here converts.
//
// Every body is JSON written by encoding/json but one: a gateway asks
// its members for /v1/topk with Accept: PointsType, and they answer in
// fixed-width binary (AppendPoints, ParsePoints). A wide read returns
// thousands of points, and writing each float as decimal text at the
// member and parsing it back at the gateway was the largest cost of
// that hop. Every other client gets /v1/topk as TopK in JSON.
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
// carry their Results.
type Item struct {
	OK      bool      `json:"ok"`
	Error   *Error    `json:"error,omitempty"`
	Results []point.P `json:"results,omitempty"`
}
