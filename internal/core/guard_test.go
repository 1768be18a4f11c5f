package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/point"
)

// TestGuard: Reserve checks in the fixed order and a rejected point
// claims nothing, Release frees a point for reuse, Load names the first
// offender by index, and Check tells the live set from anything else.
func TestGuard(t *testing.T) {
	var g Guard
	live := point.P{X: 1, Score: 10}
	if err := g.Reserve(live); err != nil {
		t.Fatalf("first Reserve on the zero Guard: %v", err)
	}
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		p    point.P
		want error
	}{
		{point.P{X: math.NaN(), Score: 10}, ErrInvalidPoint},
		{point.P{X: 1, Score: math.Inf(1)}, ErrInvalidPoint},
		{point.P{X: 1, Score: 10}, ErrDuplicatePosition},
		{point.P{X: 1, Score: 20}, ErrDuplicatePosition},
		{point.P{X: 2, Score: 10}, ErrDuplicateScore},
	} {
		if err := g.Reserve(c.p); !errors.Is(err, c.want) {
			t.Fatalf("Reserve(%v) = %v, want %v", c.p, err, c.want)
		}
	}
	// The rejected (2, 10) left position 2 free and (1, 20) score 20.
	if err := g.Check([]point.P{live}); err != nil {
		t.Fatalf("after rejections: %v", err)
	}
	if err := g.Reserve(point.P{X: 2, Score: 20}); err != nil {
		t.Fatal(err)
	}
	if err := g.Reserve(point.P{X: negZero, Score: 0}); err != nil {
		t.Fatal(err)
	}
	if err := g.Reserve(point.P{X: 0, Score: 30}); !errors.Is(err, ErrDuplicatePosition) {
		t.Fatalf("+0 against a live -0: %v", err)
	}
	g.Release(live)
	if err := g.Reserve(point.P{X: 3, Score: live.Score}); err != nil {
		t.Fatalf("reusing a released score: %v", err)
	}
	want := []point.P{{X: 2, Score: 20}, {X: negZero, Score: 0}, {X: 3, Score: 10}}
	if err := g.Check(want); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]point.P{
		want[:2],
		append(want[:2:2], point.P{X: 4, Score: 10}),
		append(want[:2:2], point.P{X: 3, Score: 11}),
		append(want[:3:3], point.P{X: 3, Score: 11}),
	} {
		if g.Check(bad) == nil {
			t.Fatalf("Check(%v) passed; the guard holds %v", bad, want)
		}
	}

	for _, c := range []struct {
		pts  []point.P
		want error
		name string
	}{
		{[]point.P{{X: 1, Score: 1}, {X: 2, Score: 2}}, nil, ""},
		{[]point.P{{X: 1, Score: 1}, {X: 2, Score: math.NaN()}, {X: 1, Score: 3}}, ErrInvalidPoint, "load point 1 (2, NaN)"},
		{[]point.P{{X: 1, Score: 1}, {X: 2, Score: 1}, {X: 1, Score: 3}}, ErrDuplicateScore, "load point 1 (score=1)"},
		{[]point.P{{X: 1, Score: 1}, {X: 2, Score: 2}, {X: 1, Score: 2}}, ErrDuplicatePosition, "load point 2 (x=1)"},
	} {
		var g Guard
		err := g.Load(c.pts)
		if !errors.Is(err, c.want) || (err != nil && !strings.HasPrefix(err.Error(), c.name+":")) {
			t.Errorf("Load(%v) = %v, want %v naming %q", c.pts, err, c.want, c.name)
		}
	}
}
