// Package wire declares the /v1 bodies that both ends of the HTTP tier
// speak: internal/serve decodes Op and encodes Item, Error and TopK;
// internal/cluster encodes Op and decodes Item, Error and TopK. A point
// travels as point.P, whose JSON tags are the wire spelling, so nothing
// here converts.
//
// Everything is written by encoding/json. The gateway reads a member's
// /v1/topk body with ParseTopK, which scans the spelling encoding/json
// writes without reflection and hands any other body to json.Unmarshal:
// a wide read returns thousands of points, and reflective decoding of
// them was the largest share of the gateway's CPU.
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
