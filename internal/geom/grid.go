package geom

import (
	"math"
	"math/bits"
)

// Grid is a uniform spatial hash over points in the plane, keyed by integer
// IDs. It exists for the PHY's neighbor culling: the channel records every
// radio's (slightly stale, slack-bounded) position here and asks for the
// IDs near a transmitter instead of scanning all attached radios.
//
// The grid is purely positional — it knows nothing about time or motion;
// the caller owns the policy of when a stored position is stale enough to
// update. Cells are square with side Cell, held in a map so the road plane
// is unbounded in every direction (negative coordinates included).
//
// QueryInto returns IDs in ascending order. That ordering is load-bearing:
// IDs are radio attach indices, and the channel's determinism contract
// requires culled iteration to visit receivers in exactly the relative
// order the full scan would have.
type Grid struct {
	cell  float64
	cells map[uint64][]int32
	// Per-ID stored state, indexed by ID (dense, grown on demand).
	pos []Vec2
	key []uint64
	in  []bool
	// hits is QueryInto's scratch bitmap, one bit per ID. Emitting set bits
	// word by word yields ascending order without a comparison sort; each
	// query clears only the words it touched.
	hits []uint64
	// free holds the buckets of cells that emptied, reused for cells that
	// fill, so points moving across cells allocate nothing in steady state.
	free [][]int32
}

// NewGrid creates an empty grid with the given cell side. It panics on a
// non-positive or non-finite cell: a degenerate cell would silently put
// every point in one bucket (or none), defeating the index.
func NewGrid(cell float64) *Grid {
	if !(cell > 0) || math.IsInf(cell, 1) {
		panic("geom: grid cell side must be positive and finite")
	}
	return &Grid{cell: cell, cells: make(map[uint64][]int32)}
}

// Cell returns the cell side length.
func (g *Grid) Cell() float64 { return g.cell }

// cellKey packs the cell coordinates containing p into one map key. Floor
// (not truncation) keeps negative coordinates in their own cells.
func (g *Grid) cellKey(p Vec2) uint64 {
	cx := int32(math.Floor(p.X / g.cell))
	cy := int32(math.Floor(p.Y / g.cell))
	return uint64(uint32(cx))<<32 | uint64(uint32(cy))
}

// grow ensures per-ID storage covers id.
func (g *Grid) grow(id int32) {
	for int(id) >= len(g.pos) {
		g.pos = append(g.pos, Vec2{})
		g.key = append(g.key, 0)
		g.in = append(g.in, false)
	}
}

// Update stores p as id's position, moving it between cells as needed.
// Inserting a new ID and moving an existing one are the same operation.
func (g *Grid) Update(id int32, p Vec2) {
	g.grow(id)
	k := g.cellKey(p)
	if g.in[id] {
		if g.key[id] == k {
			g.pos[id] = p
			return
		}
		g.removeFromCell(id, g.key[id])
	}
	g.pos[id] = p
	g.key[id] = k
	g.in[id] = true
	bucket, ok := g.cells[k]
	if n := len(g.free); !ok && n > 0 {
		bucket, g.free = g.free[n-1], g.free[:n-1]
	}
	g.cells[k] = append(bucket, id)
}

func (g *Grid) removeFromCell(id int32, k uint64) {
	bucket := g.cells[k]
	for i, v := range bucket {
		if v == id {
			last := len(bucket) - 1
			bucket[i] = bucket[last]
			bucket = bucket[:last]
			break
		}
	}
	if len(bucket) == 0 {
		delete(g.cells, k)
		g.free = append(g.free, bucket)
	} else {
		g.cells[k] = bucket
	}
}

// QueryInto appends to dst every stored ID whose position lies within
// radius of center (boundary inclusive), in ascending ID order, and
// returns the extended slice. dst is reused to keep the query
// allocation-free in steady state; pass dst[:0] of a scratch buffer.
//
// Ordering comes from a per-ID scratch bitmap rather than a comparison
// sort: hits set their bit, then the touched word range is swept emitting
// set bits low to high. IDs are dense attach slots, so the sweep covers a
// few words and the whole query stays O(cells scanned + hits).
func (g *Grid) QueryInto(dst []int32, center Vec2, radius float64) []int32 {
	if radius < 0 {
		return dst
	}
	if need := (len(g.pos) + 63) / 64; len(g.hits) < need {
		g.hits = append(g.hits, make([]uint64, need-len(g.hits))...)
	}
	r2 := radius * radius
	cx0 := int32(math.Floor((center.X - radius) / g.cell))
	cx1 := int32(math.Floor((center.X + radius) / g.cell))
	cy0 := int32(math.Floor((center.Y - radius) / g.cell))
	cy1 := int32(math.Floor((center.Y + radius) / g.cell))
	w := g.hits
	lo, hi := len(w), -1
	for cx := cx0; cx <= cx1; cx++ {
		for cy := cy0; cy <= cy1; cy++ {
			k := uint64(uint32(cx))<<32 | uint64(uint32(cy))
			for _, id := range g.cells[k] {
				if g.pos[id].DistSq(center) <= r2 {
					wi := int(id) >> 6
					w[wi] |= 1 << (uint(id) & 63)
					if wi < lo {
						lo = wi
					}
					if wi > hi {
						hi = wi
					}
				}
			}
		}
	}
	for wi := lo; wi <= hi; wi++ {
		word := w[wi]
		if word == 0 {
			continue
		}
		w[wi] = 0
		base := int32(wi << 6)
		for word != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// Rebuild re-inserts every present ID with its stored position under a new
// cell side. The channel calls this when a late-attached radio pushes the
// carrier-sense range past the current cell size.
func (g *Grid) Rebuild(cell float64) {
	if !(cell > 0) || math.IsInf(cell, 1) {
		panic("geom: grid cell side must be positive and finite")
	}
	g.cell = cell
	g.cells = make(map[uint64][]int32)
	for id := range g.pos {
		if g.in[id] {
			k := g.cellKey(g.pos[id])
			g.key[id] = k
			g.cells[k] = append(g.cells[k], int32(id))
		}
	}
}
