package geom

import (
	"math"
	"slices"
	"testing"
)

// bruteQuery is the reference the grid must match exactly: every stored ID
// within radius of center (boundary inclusive), ascending.
func bruteQuery(pos map[int32]Vec2, center Vec2, radius float64) []int32 {
	var out []int32
	r2 := radius * radius
	for id, p := range pos {
		if p.DistSq(center) <= r2 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// lcg is a tiny deterministic generator so the property sweep never
// depends on test ordering.
type lcg uint64

func (r *lcg) next() uint64 { *r = *r*6364136223846793005 + 1442695040888963407; return uint64(*r) }
func (r *lcg) float(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(r.next()>>11)/float64(1<<53)
}

func TestGridMatchesBruteForce(t *testing.T) {
	const cell = 137.5
	g := NewGrid(cell)
	ref := make(map[int32]Vec2)
	rng := lcg(1)

	update := func(id int32, p Vec2) {
		g.Update(id, p)
		ref[id] = p
	}
	// Random scatter, including negative coordinates.
	for id := int32(0); id < 200; id++ {
		update(id, V(rng.float(-5000, 5000), rng.float(-5000, 5000)))
	}
	// Exact cell-boundary positions: corners and edges of the lattice,
	// where floor bucketing must agree with the distance test.
	id := int32(200)
	for i := -3; i <= 3; i++ {
		update(id, V(float64(i)*cell, 0))
		id++
		update(id, V(float64(i)*cell, -2*cell))
		id++
		update(id, V(float64(i)*cell+cell/2, cell))
		id++
	}
	// Churn: move half the IDs (some across cells), and a few more onto
	// lattice corners.
	for i := int32(0); i < 100; i++ {
		update(i, V(rng.float(-5000, 5000), rng.float(-5000, 5000)))
	}
	for i := int32(100); i < 110; i++ {
		update(i, V(float64(i-105)*cell, float64(i%3)*cell))
	}

	for trial := 0; trial < 200; trial++ {
		center := V(rng.float(-5200, 5200), rng.float(-5200, 5200))
		radius := rng.float(0, 1500)
		got := g.QueryInto(nil, center, radius)
		want := bruteQuery(ref, center, radius)
		if !slices.Equal(got, want) {
			t.Fatalf("query(%v, %v) = %v, want %v", center, radius, got, want)
		}
	}
}

func TestGridQueryBoundaryInclusive(t *testing.T) {
	g := NewGrid(100)
	g.Update(0, V(250, 0))
	if got := g.QueryInto(nil, V(0, 0), 250); len(got) != 1 {
		t.Fatalf("point exactly at radius excluded: %v", got)
	}
	if got := g.QueryInto(nil, V(0, 0), 249.9999); len(got) != 0 {
		t.Fatalf("point beyond radius included: %v", got)
	}
}

func TestGridUpdateMovesAcrossCells(t *testing.T) {
	g := NewGrid(10)
	g.Update(7, V(5, 5))
	g.Update(7, V(95, -95)) // different cell; must leave the old bucket
	if got := g.QueryInto(nil, V(5, 5), 1); len(got) != 0 {
		t.Fatalf("stale entry left in old cell: %v", got)
	}
	got := g.QueryInto(nil, V(95, -95), 1)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("moved entry missing from new cell: %v", got)
	}
}

func TestGridRebuildKeepsQueries(t *testing.T) {
	g := NewGrid(50)
	for id := int32(0); id < 20; id++ {
		g.Update(id, V(float64(id)*40, float64(id%3)*40))
	}
	before := g.QueryInto(nil, V(300, 40), 500)
	g.Rebuild(200)
	if g.Cell() != 200 {
		t.Fatalf("Cell = %v after rebuild, want 200", g.Cell())
	}
	after := g.QueryInto(nil, V(300, 40), 500)
	if !slices.Equal(before, after) {
		t.Fatalf("rebuild changed query results: %v vs %v", before, after)
	}
}

func TestGridDegenerateCellPanics(t *testing.T) {
	for _, cell := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGrid(%v) did not panic", cell)
				}
			}()
			NewGrid(cell)
		}()
	}
}
