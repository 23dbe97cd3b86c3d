package main

import (
	"math"
	"sort"

	"spio"
)

// fp is an order-independent fingerprint of a particle multiset: a
// count plus the wrapping sum and the xor of per-particle hashes. Two
// answers that hold the same particles in any order agree; an answer
// that loses, duplicates or alters one disagrees.
type fp struct {
	N   int
	Sum uint64
	Xor uint64
}

func (f *fp) add(h uint64) {
	f.N++
	f.Sum += h
	f.Xor ^= h
}

func (f *fp) merge(o fp) {
	f.N += o.N
	f.Sum += o.Sum
	f.Xor ^= o.Xor
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// recordHasher hashes every component of every field of a buffer's
// particles, so two particles agree only when their whole records are
// identical.
type recordHasher struct {
	f64 [][]float64
	f32 [][]float32
	c64 []int // components per particle of each f64 and f32 field
	c32 []int
}

func newRecordHasher(b *spio.Buffer) recordHasher {
	var h recordHasher
	s := b.Schema()
	for fi := 0; fi < s.NumFields(); fi++ {
		switch fd := s.Field(fi); fd.Kind {
		case spio.Float64:
			h.f64 = append(h.f64, b.Float64Field(fi))
			h.c64 = append(h.c64, fd.Components)
		case spio.Float32:
			h.f32 = append(h.f32, b.Float32Field(fi))
			h.c32 = append(h.c32, fd.Components)
		}
	}
	return h
}

// hash folds particle i's components with a multiply-xor and finishes
// with mix.
func (h *recordHasher) hash(i int) uint64 {
	const k = 0x9e3779b97f4a7c15
	var x uint64
	for f, v := range h.f64 {
		c := h.c64[f]
		for _, e := range v[i*c : i*c+c] {
			x = (x ^ math.Float64bits(e)) * k
		}
	}
	for f, v := range h.f32 {
		c := h.c32[f]
		for _, e := range v[i*c : i*c+c] {
			x = (x ^ uint64(math.Float32bits(e))) * k
		}
	}
	return mix(x)
}

// fpOf fingerprints a buffer's records; when q is non-nil only the
// particles inside it count.
func fpOf(b *spio.Buffer, q *spio.Box) fp {
	var f fp
	if b == nil {
		return f
	}
	h := newRecordHasher(b)
	for i := 0; i < b.Len(); i++ {
		if q == nil || q.Contains(b.Position(i)) {
			f.add(h.hash(i))
		}
	}
	return f
}

// truthCells is the side of the cell grid the truth index buckets
// particles into.
const truthCells = 16

// truth is the generated input of a read workload, the reference every
// answer is checked against. Particles are bucketed into a uniform grid
// over the unit domain so a box check visits only the cells the box
// touches; cells strictly inside the box contribute their precomputed
// fingerprint whole, and boundary cells are filtered particle by
// particle with the same Box.Contains the answers were filtered with.
type truth struct {
	pos   []spio.Vec3 // particles ordered by cell
	h     []uint64
	start []int // particles of cell c are [start[c], start[c+1])
	cell  []fp
	all   fp
}

func cellOf(x float64) int {
	c := int(x * truthCells)
	return min(max(c, 0), truthCells-1)
}

func newTruth(bufs []*spio.Buffer) *truth {
	var pos []spio.Vec3
	var hs []uint64
	for _, b := range bufs {
		h := newRecordHasher(b)
		for i := 0; i < b.Len(); i++ {
			pos = append(pos, b.Position(i))
			hs = append(hs, h.hash(i))
		}
	}
	nc := truthCells * truthCells * truthCells
	cellIdx := func(p spio.Vec3) int {
		return cellOf(p.X) + truthCells*(cellOf(p.Y)+truthCells*cellOf(p.Z))
	}
	t := &truth{
		pos:   make([]spio.Vec3, len(pos)),
		h:     make([]uint64, len(pos)),
		start: make([]int, nc+1),
		cell:  make([]fp, nc),
	}
	for _, p := range pos {
		t.start[cellIdx(p)+1]++
	}
	for c := 0; c < nc; c++ {
		t.start[c+1] += t.start[c]
	}
	next := append([]int(nil), t.start[:nc]...)
	for i, p := range pos {
		c := cellIdx(p)
		t.pos[next[c]] = p
		t.h[next[c]] = hs[i]
		next[c]++
		t.cell[c].add(hs[i])
		t.all.add(hs[i])
	}
	return t
}

// box returns the fingerprint of the input particles inside q.
func (t *truth) box(q spio.Box) fp {
	var f fp
	lo := [3]int{cellOf(q.Lo.X), cellOf(q.Lo.Y), cellOf(q.Lo.Z)}
	hi := [3]int{cellOf(q.Hi.X), cellOf(q.Hi.Y), cellOf(q.Hi.Z)}
	// eps keeps rounding at a cell face from counting a cell as inside.
	const w, eps = 1.0 / truthCells, 1e-9
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for x := lo[0]; x <= hi[0]; x++ {
				c := x + truthCells*(y+truthCells*z)
				cl := spio.V3(float64(x)*w, float64(y)*w, float64(z)*w)
				ch := spio.V3(float64(x+1)*w, float64(y+1)*w, float64(z+1)*w)
				inside := cl.X-eps > q.Lo.X && cl.Y-eps > q.Lo.Y && cl.Z-eps > q.Lo.Z &&
					ch.X+eps < q.Hi.X && ch.Y+eps < q.Hi.Y && ch.Z+eps < q.Hi.Z
				if inside {
					f.merge(t.cell[c])
					continue
				}
				for i := t.start[c]; i < t.start[c+1]; i++ {
					if q.Contains(t.pos[i]) {
						f.add(t.h[i])
					}
				}
			}
		}
	}
	return f
}

// knn returns the k smallest distances to p, ascending, and the
// fingerprint of the particles at them, by a scan of every particle.
func (t *truth) knn(p spio.Vec3, k int) ([]float64, fp) {
	type cand struct {
		d float64
		i int
	}
	// best is kept sorted ascending; k is small.
	best := make([]cand, 0, k+1)
	for i, q := range t.pos {
		d := p.Dist(q)
		if len(best) == k && d >= best[k-1].d {
			continue
		}
		j := sort.Search(len(best), func(j int) bool { return best[j].d > d })
		best = append(best, cand{})
		copy(best[j+1:], best[j:])
		best[j] = cand{d, i}
		if len(best) > k {
			best = best[:k]
		}
	}
	ds := make([]float64, len(best))
	var f fp
	for j, c := range best {
		ds[j] = c.d
		f.add(t.h[c.i])
	}
	return ds, f
}

// sameDists reports whether two ascending distance lists agree to
// within rounding.
func sameDists(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12*math.Max(1, math.Abs(b[i])) {
			return false
		}
	}
	return true
}
