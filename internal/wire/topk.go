package wire

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"

	"repro/internal/point"
)

// TopK is the body of a GET /v1/topk response: one page of results in
// descending score order, starting Offset points below the top. The
// field order is the key order on the wire, sorted as a map's would
// be; internal/serve's TestGoldenBytes pins the bytes.
type TopK struct {
	Offset  int       `json:"offset"`
	Results []point.P `json:"results"`
}

// ParseTopK appends the points of a /v1/topk body to dst and returns
// the extended slice; on error it returns dst unchanged (its length;
// spare capacity may have been written).
//
// A body in exactly the spelling encoding/json writes for TopK — no
// whitespace but a trailing run, keys in declaration order, every
// number in JSON grammar — is scanned by hand, without reflection or
// allocation beyond growing dst. Its numbers go through the same
// strconv calls encoding/json makes, so the points are bit-identical.
// Every other body goes to json.Unmarshal: the bodies ParseTopK accepts
// and the errors it returns are encoding/json's.
func ParseTopK(body []byte, dst []point.P) ([]point.P, error) {
	if out, ok := scanTopK(body, dst); ok {
		return out, nil
	}
	var t TopK
	if err := json.Unmarshal(body, &t); err != nil {
		return dst, err
	}
	return append(dst, t.Results...), nil
}

// scanTopK is ParseTopK's fast path. It reports false, leaving the
// decision to json.Unmarshal, at the first byte outside the canonical
// spelling or at a number strconv rejects.
func scanTopK(body []byte, dst []point.P) ([]point.P, bool) {
	s := scanner{b: body}
	if !s.lit(`{"offset":`) {
		return dst, false
	}
	if !s.integer() || !s.lit(`,"results":[`) {
		return dst, false
	}
	// One '{' per point, and no point is shorter than
	// {"x":0,"score":0}: size dst once rather than by doubling, never
	// past what the rest of the body could hold.
	rest := s.b[s.i:]
	out := slices.Grow(dst, min(bytes.Count(rest, []byte{'{'}), len(rest)/len(`{"x":0,"score":0}`)))
	if !s.lit("]") {
		for {
			if !s.lit(`{"x":`) {
				return dst, false
			}
			x, ok := s.float()
			if !ok || !s.lit(`,"score":`) {
				return dst, false
			}
			score, ok := s.float()
			if !ok || !s.lit("}") {
				return dst, false
			}
			out = append(out, point.P{X: x, Score: score})
			if s.lit("]") {
				break
			}
			if !s.lit(",") {
				return dst, false
			}
		}
	}
	if !s.lit("}") {
		return dst, false
	}
	for _, c := range s.b[s.i:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return dst, false
		}
	}
	return out, true
}

// scanner walks a body left to right.
type scanner struct {
	b []byte
	i int
}

// lit consumes lit if the body continues with it.
func (s *scanner) lit(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// float consumes a JSON number and parses it as encoding/json does for
// a float64 field.
func (s *scanner) float() (float64, bool) {
	num, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, err == nil
}

// integer consumes a JSON number and reports whether encoding/json
// would store it in an int field: ParseInt rejects a fraction or an
// exponent, as encoding/json does.
func (s *scanner) integer() bool {
	num, ok := s.number()
	if !ok {
		return false
	}
	_, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	return err == nil
}

// number consumes -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// JSON's number grammar.
func (s *scanner) number() ([]byte, bool) {
	start := s.i
	if s.peek() == '-' {
		s.i++
	}
	switch c := s.peek(); {
	case c == '0':
		s.i++
	case '1' <= c && c <= '9':
		s.digits()
	default:
		return nil, false
	}
	if s.peek() == '.' {
		s.i++
		if !s.digits() {
			return nil, false
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// digits consumes [0-9]+ and reports whether there was one.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// peek returns the next byte, or 0 at the end.
func (s *scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}
