package vecstore

import (
	"math"
	"sort"

	"v2v/internal/f32"
	"v2v/internal/xrand"
)

// The cut: NewExact arranges the int8 shadow of a large store cell by
// cell, so that the exact scan can skip every row of a cell whose
// bound proves none of them enters the heap (scan.go has the bound and
// the traversal). The partition only decides how much a query skips,
// never what it answers, so it is cheap rather than good: k-means++
// seeds on a strided sample, a few assignment passes over that sample
// and one over every row, all scored by f32.DotRowsI8 against each
// centre quantised as a query.

// cellRule is which stores the exact index cuts: one of at least floor
// rows, none of them non-finite, whose cut skips at least half the
// rows of trials trial queries (pays; 0 trials keeps every cut). Any
// other store is scanned in row order as one range. The zero rule
// stands for the default one, cellFloor and cutTrials
// (BenchmarkCellFloor measures both sides of the floor; docs/VECTORS.md
// has the figures); tests set Config.cells to cut small stores.
type cellRule struct{ floor, trials int }

const cellFloor, cutTrials = 1024, 16

// cellSample caps the sample the seeds and the sample passes run on,
// in rows per cell, and sampleRounds is the number of sample passes
// after the seeds.
const (
	cellSample   = 16
	sampleRounds = 2
)

// cell is one ball of the cut: the rows at positions [lo, hi) of the
// shadow. The centres are in int8Rows.cen and int8Rows.unit; cn and un
// are their squared norms and cr and ur the roots of those, rho and
// rhoU the radii (see the cell bound in scan.go), and zero is set when
// a row of the cell is the zero vector, whose cosine score is 0
// whatever its direction.
type cell struct {
	lo, hi    int
	cn, un    float64
	cr, ur    float64
	rho, rhoU float64
	zero      bool
}

// cellCount is the number of cells a cut of n rows aims at: about √n,
// which balances the per-cell cost of a query (a bound, a heap step, a
// short block) against the rows a skipped cell saves.
func cellCount(n int) int { return max(1, int(math.Sqrt(float64(n)))) }

// cellSlack returns sl for vectors of dim elements: every float64
// rounding between a cell's centre and a row's score is below a
// quarter of sl times the bound's scale (see the cell bound in
// scan.go).
func cellSlack(dim int) float64 { return float64(dim+32) * 0x1p-50 }

// cut returns s's shadow cut into cells, or r when rule does not cut s
// (fewer than rule.floor rows, a non-finite one, or a cut that does
// not pay). r must be s's shadow in row order. Cosine stores are cut
// by angle, the others by distance. The result depends on the rows,
// the metric and the rule only, not on workers.
func (r *int8Rows) cut(s *Store, metric Metric, rule cellRule, workers int) *int8Rows {
	n, dim := s.n, s.dim
	if rule == (cellRule{}) {
		rule = cellRule{cellFloor, cutTrials}
	}
	if n < rule.floor || n > math.MaxInt32 {
		return r
	}
	for _, sc := range r.scale {
		if sc != sc {
			return r
		}
	}
	norms, angular := r.norm, metric == Cosine

	// Seeds and sample passes on a strided sample, then one pass over
	// every row.
	k := cellCount(n)
	m := min(n, cellSample*k)
	sample := make([]int, m)
	for j := range sample {
		sample[j] = j * n / m
	}
	cen := fitCentres(r.gather(sample), s, norms, sample, k, angular, workers)
	assign := assignRows(r, cen, dim, angular, workers)

	// Lay the rows out cell by cell, in row order within a cell, and
	// drop the cells no row went to.
	k = len(cen) / dim
	count := make([]int, k+1)
	for _, a := range assign {
		count[a+1]++
	}
	for j := 1; j <= k; j++ {
		count[j] += count[j-1]
	}
	out := &int8Rows{
		stride: r.stride,
		codes:  make([]int8, len(r.codes)),
		scale:  make([]float64, n),
		half:   make([]float64, n),
		norm:   make([]float64, n),
		ids:    make([]int32, n),
		pos:    make([]int32, n),
	}
	next := append([]int(nil), count[:k]...)
	for i, a := range assign {
		p := next[a]
		next[a]++
		out.ids[p], out.pos[i] = int32(i), int32(p)
		copy(out.codes[p*r.stride:(p+1)*r.stride], r.codes[i*r.stride:])
		out.scale[p], out.half[p], out.norm[p] = r.scale[i], r.half[i], norms[i]
	}
	cellOf := make([]int32, k)
	for j := 0; j < k; j++ {
		cellOf[j] = int32(len(out.cells))
		if count[j+1] > count[j] {
			out.cells = append(out.cells, cell{lo: count[j], hi: count[j+1]})
		}
	}
	for i, a := range assign {
		assign[i] = cellOf[a]
	}
	out.fit(s, assign, workers)
	if !out.pays(s, metric, rule.trials) {
		r.tried = true
		return r
	}
	return out
}

// pays reports whether the cut r of s skips at least half the rows
// of a top-10 query for metric, on average over trials of s's rows as
// queries; with no trials it holds. Every cell a query visits costs a
// bound, a heap step and a short block on top of its rows, so on a
// store with no clusters to skip (gaussian rows, say) the cut is
// slower than row order.
func (r *int8Rows) pays(s *Store, metric Metric, trials int) bool {
	var t TopK
	visited := 0
	for j := range trials {
		i := j * s.n / trials
		t.Reset(clampK(10, s.Live()-1))
		if visited += scanShadow(s, r, metric, s.Row(i), s.SqNorms()[i], i, &t).visited; visited > trials*s.n/2 {
			return false
		}
	}
	return true
}

// fit sets every cell's centres, their squared norms, its radii and
// its zero flag, for s's rows and their cells (cellOf[row]): the raw
// mean c and the mean u of the unit rows, summed in row order and
// rounded to float32, and radii measured in float64 against those
// float32 centres (radii), on up to workers goroutines.
func (r *int8Rows) fit(s *Store, cellOf []int32, workers int) {
	n, dim, k := s.n, s.dim, len(r.cells)
	// Each worker takes a range of cells and reads the rows in row
	// order, skipping the other cells' rows: every sum has the same
	// order whatever the number of workers.
	mine := func(lo, hi int, f func(i, j int, rn float64)) {
		for i := 0; i < n; i++ {
			if j := int(cellOf[i]); lo <= j && j < hi {
				f(i, j, r.norm[r.pos[i]])
			}
		}
	}
	sum, usum := make([]float64, k*dim), make([]float64, k*dim)
	nonzero := make([]int, k)
	parallelRange(k, workers, func(lo, hi int) {
		mine(lo, hi, func(i, j int, rn float64) {
			row, inv := s.Row(i), 0.0 // a zero row adds nothing to u
			if rn != 0 {
				nonzero[j]++
				inv = 1 / math.Sqrt(rn)
			}
			acc, uacc := sum[j*dim:][:dim], usum[j*dim:][:dim]
			for e, x := range row {
				acc[e] += float64(x)
				uacc[e] += float64(x) * inv
			}
		})
	})
	r.cen, r.unit = make([]float32, k*dim), make([]float32, k*dim)
	for j := range r.cells {
		c := &r.cells[j]
		for e := j * dim; e < (j+1)*dim; e++ {
			r.cen[e] = float32(sum[e] / float64(c.hi-c.lo))
			if nonzero[j] > 0 {
				r.unit[e] = float32(usum[e] / float64(nonzero[j]))
			}
		}
		c.cn, c.un = sqNorm(r.cen[j*dim:(j+1)*dim]), sqNorm(r.unit[j*dim:(j+1)*dim])
		c.cr, c.ur = math.Sqrt(c.cn), math.Sqrt(c.un)
	}
	parallelRange(k, workers, func(lo, hi int) {
		mine(lo, hi, func(i, j int, rn float64) {
			c := &r.cells[j]
			rho, rhoU := r.radii(j, s.Row(i), rn)
			c.rho, c.rhoU, c.zero = max(c.rho, rho), max(c.rhoU, rhoU), c.zero || rn == 0
		})
	})
}

// radii returns the distances of the row v, of squared norm rn, from
// cell j's centres, each rounded up by sl (see the cell bound in
// scan.go): ‖v - c‖, and ‖v/‖v‖ - u‖ (0 for a zero v, which no cosine
// bound covers).
func (r *int8Rows) radii(j int, v []float32, rn float64) (rho, rhoU float64) {
	dim := len(v)
	sl := cellSlack(dim)
	cen, unit := r.cen[j*dim:][:dim], r.unit[j*dim:][:dim]
	var d2, u2 float64
	inv := 1 / math.Sqrt(rn)
	for i, x := range v {
		d := float64(x) - float64(cen[i])
		d2 += d * d
		e := float64(x)*inv - float64(unit[i])
		u2 += e * e
	}
	rho = math.Sqrt(d2) * (1 + sl)
	if rn != 0 {
		rhoU = math.Sqrt(u2)*(1+sl) + sl
	}
	return rho, rhoU
}

// cellOf returns the index of the cell holding position p, or -1 for a
// position in the tail.
func (r *int8Rows) cellOf(p int) int {
	j := sort.Search(len(r.cells), func(j int) bool { return r.cells[j].hi > p })
	if j == len(r.cells) {
		return -1
	}
	return j
}

// fitCentres returns up to k centres for the given rows of s, of
// shadow sub: k-means++ seeds (seedCentres), then sampleRounds passes
// of assignRows and centres.
func fitCentres(sub *int8Rows, s *Store, norms []float64, rows []int, k int, angular bool, workers int) []float32 {
	cen := seedCentres(sub, s, norms, rows, k, angular)
	for range sampleRounds {
		cen = centres(s, norms, rows, assignRows(sub, cen, s.dim, angular, workers), len(cen)/s.dim, angular)
	}
	return cen
}

// seedCentres picks k centres among the sample's rows by k-means++
// (fixed seed, so the cut is deterministic), scoring distances on the
// sample's shadow sub and the rows' squared norms, and returns them as
// float32 rows (unit rows when angular), k*dim of them.
func seedCentres(sub *int8Rows, s *Store, norms []float64, sample []int, k int, angular bool) []float32 {
	m, dim := len(sample), s.dim
	k = min(k, m)
	d2 := make([]float64, m)
	for x := range d2 {
		d2[x] = math.Inf(1)
	}
	// A sample row's dot with a seed is f[x]·f[y]·Q·R: f is the row's
	// scale, over its norm when angular (0 for a zero row).
	f, sq := make([]float64, m), make([]float64, m)
	for x, i := range sample {
		f[x], sq[x] = sub.scale[x], norms[i]
		if angular {
			f[x], sq[x] = 0, 1
			if norms[i] > 0 {
				f[x] = sub.scale[x] / math.Sqrt(norms[i])
			}
		}
	}
	dots := make([]int32, m)
	rng := xrand.New(0x5eed)
	cen := make([]float32, 0, k*dim)
	y := rng.Intn(m)
	for len(cen) < k*dim {
		cen = appendCentre(cen, s.Row(sample[y]), norms[sample[y]], angular)
		f32.DotRowsI8(sub.codes[y*sub.stride:(y+1)*sub.stride], sub.codes, dots)
		total := 0.0
		for x, d := range dots {
			// The squared distance, of the unit rows when angular.
			dist := sq[x] + sq[y] - 2*f[x]*f[y]*float64(d)
			d2[x] = min(d2[x], max(dist, 0))
			total += d2[x]
		}
		if !(total > 0) {
			break // every sample row sits on a centre
		}
		u := rng.Float64() * total
		y = m - 1
		for x, d := range d2 {
			if u -= d; u < 0 {
				y = x
				break
			}
		}
	}
	return cen
}

// appendCentre appends the row v (of squared norm vn), or its unit
// vector when angular, to cen as float32.
func appendCentre(cen []float32, v []float32, vn float64, angular bool) []float32 {
	inv := 1.0
	if angular && vn > 0 {
		inv = 1 / math.Sqrt(vn)
	}
	for _, x := range v {
		cen = append(cen, float32(float64(x)*inv))
	}
	return cen
}

// centres returns the mean of each centre's rows (of the unit rows when
// angular), for the given rows of s, of squared norms norms[row], and
// their assignment to k centres, dropping the centres no row went to.
func centres(s *Store, norms []float64, rows []int, assign []int32, k int, angular bool) []float32 {
	dim := s.dim
	sum := make([]float64, k*dim)
	count := make([]int, k)
	for x, a := range assign {
		i := rows[x]
		inv := 1.0
		if angular && norms[i] > 0 {
			inv = 1 / math.Sqrt(norms[i])
		}
		acc := sum[int(a)*dim : (int(a)+1)*dim]
		for e, v := range s.Row(i) {
			acc[e] += float64(v) * inv
		}
		count[a]++
	}
	cen := make([]float32, 0, k*dim)
	for j := range k {
		if count[j] == 0 {
			continue
		}
		for _, v := range sum[j*dim : (j+1)*dim] {
			cen = append(cen, float32(v/float64(count[j])))
		}
	}
	return cen
}

// assignRows returns, for every row of the shadow r, the index of its
// best centre among cen (k*dim float32): the largest cosine to the
// centre when angular, the smallest distance otherwise, both estimated
// from the int8 dots of the row's codes and the centre's, ties to the
// smaller index. Blocks of rows go to up to workers goroutines.
func assignRows(r *int8Rows, cen []float32, dim int, angular bool, workers int) []int32 {
	n, k := len(r.scale), len(cen)/dim
	qs := make([]int8Query, k)
	fac, off := make([]float64, k), make([]float64, k)
	for j := range qs {
		c := cen[j*dim : (j+1)*dim]
		qs[j] = newInt8Query(c, r.stride, nil)
		cn := sqNorm(c)
		fac[j], off[j] = qs[j].scale, cn/2
		if angular {
			fac[j], off[j] = qs[j].scale/math.Sqrt(cn), 0
			if !(cn > 0) {
				fac[j], off[j] = 0, math.Inf(1)
			}
		}
	}
	assign := make([]int32, n)
	parallelRange((n+scanBlock-1)/scanBlock, workers, func(first, last int) {
		for blk := first; blk < last; blk++ {
			assignBlock(r, qs, fac, off, angular, blk*scanBlock, min(n, (blk+1)*scanBlock), assign)
		}
	})
	return assign
}

// assignBlock sets assign[lo:hi] for assignRows, the rows of one
// block against every centre.
func assignBlock(r *int8Rows, qs []int8Query, fac, off []float64, angular bool, lo, hi int, assign []int32) {
	var dots [scanBlock]int32
	var best [scanBlock]float64
	var arg [scanBlock]int32
	for x := range best {
		best[x] = math.Inf(-1)
	}
	codes, sr := r.codes[lo*r.stride:hi*r.stride], r.scale[lo:hi]
	for j := range qs {
		d := dots[:hi-lo]
		f32.DotRowsI8(qs[j].codes, codes, d)
		fj, oj := fac[j], off[j]
		if angular {
			for x, dx := range d {
				if v := fj*float64(dx) - oj; v > best[x] {
					best[x], arg[x] = v, int32(j)
				}
			}
			continue
		}
		for x, dx := range d {
			if v := sr[x]*fj*float64(dx) - oj; v > best[x] {
				best[x], arg[x] = v, int32(j)
			}
		}
	}
	copy(assign[lo:hi], arg[:hi-lo])
}
