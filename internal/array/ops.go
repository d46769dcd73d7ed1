package array

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/relational"
)

// Operators below follow SciDB's AQL operator set. Each returns a new
// array (or scalar relation) and leaves the input untouched.

// Filter keeps cells where the predicate (a SQL expression over
// dimension and attribute names) is true. The result is sparse.
func (a *Array) Filter(predicate string) (*Array, error) {
	cols := a.cellSchema().Columns
	pred, err := relational.CompileRowExpr(predicate, cols)
	if err != nil {
		return nil, err
	}
	out, err := New(a.Name+"_filter", cloneDims(a.Dims), a.Attrs, false)
	if err != nil {
		return nil, err
	}
	row := make(engine.Tuple, len(cols))
	err = a.Iterate(func(coords []int64, vals engine.Tuple) error {
		for i, c := range coords {
			row[i] = engine.NewInt(c)
		}
		copy(row[len(coords):], vals)
		v, err := pred(row)
		if err != nil {
			return err
		}
		if !v.IsNull() && v.AsBool() {
			return out.Set(coords, vals.Clone())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Subarray restricts the domain to the box [lo, hi] (inclusive,
// per-dimension) and rebases coordinates to start at lo.
func (a *Array) Subarray(lo, hi []int64) (*Array, error) {
	if len(lo) != len(a.Dims) || len(hi) != len(a.Dims) {
		return nil, fmt.Errorf("array: %s: subarray needs %d bounds per side", a.Name, len(a.Dims))
	}
	dims := make([]Dim, len(a.Dims))
	for i, d := range a.Dims {
		l, h := lo[i], hi[i]
		if l < d.Low {
			l = d.Low
		}
		if h > d.High {
			h = d.High
		}
		if h < l {
			return nil, fmt.Errorf("array: %s: empty subarray on dimension %s", a.Name, d.Name)
		}
		dims[i] = Dim{Name: d.Name, Low: 0, High: h - l, Chunk: d.Chunk}
		lo[i], hi[i] = l, h
	}
	out, err := New(a.Name+"_sub", dims, a.Attrs, a.dense)
	if err != nil {
		return nil, err
	}
	shifted := make([]int64, len(a.Dims))
	err = a.Iterate(func(coords []int64, vals engine.Tuple) error {
		for i := range coords {
			if coords[i] < lo[i] || coords[i] > hi[i] {
				return nil
			}
			shifted[i] = coords[i] - lo[i]
		}
		return out.Set(shifted, vals.Clone())
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Apply appends a computed attribute evaluated per populated cell.
func (a *Array) Apply(newAttr, expr string) (*Array, error) {
	cols := a.cellSchema().Columns
	ev, err := relational.CompileRowExpr(expr, cols)
	if err != nil {
		return nil, err
	}
	attrs := append(append([]engine.Column{}, a.Attrs...), engine.Col(newAttr, engine.TypeFloat))
	out, err := New(a.Name+"_apply", cloneDims(a.Dims), attrs, a.dense)
	if err != nil {
		return nil, err
	}
	row := make(engine.Tuple, len(cols))
	err = a.Iterate(func(coords []int64, vals engine.Tuple) error {
		for i, c := range coords {
			row[i] = engine.NewInt(c)
		}
		copy(row[len(coords):], vals)
		v, err := ev(row)
		if err != nil {
			return err
		}
		nv := make(engine.Tuple, 0, len(vals)+1)
		nv = append(nv, vals...)
		nv = append(nv, v)
		return out.Set(coords, nv)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AggKind names a cell aggregate.
type AggKind string

// Supported aggregates.
const (
	AggSum   AggKind = "sum"
	AggAvg   AggKind = "avg"
	AggMin   AggKind = "min"
	AggMax   AggKind = "max"
	AggCount AggKind = "count"
	AggStdev AggKind = "stdev"
)

type aggAcc struct {
	kind     AggKind
	n        int64
	sum, sq  float64
	min, max float64
}

func newAggAcc(kind AggKind) *aggAcc {
	return &aggAcc{kind: kind, min: math.Inf(1), max: math.Inf(-1)}
}

func (ac *aggAcc) add(f float64) {
	if math.IsNaN(f) {
		return
	}
	ac.n++
	ac.sum += f
	ac.sq += f * f
	if f < ac.min {
		ac.min = f
	}
	if f > ac.max {
		ac.max = f
	}
}

func (ac *aggAcc) result() engine.Value {
	switch ac.kind {
	case AggCount:
		return engine.NewInt(ac.n)
	case AggSum:
		return engine.NewFloat(ac.sum)
	case AggAvg:
		if ac.n == 0 {
			return engine.Null
		}
		return engine.NewFloat(ac.sum / float64(ac.n))
	case AggMin:
		if ac.n == 0 {
			return engine.Null
		}
		return engine.NewFloat(ac.min)
	case AggMax:
		if ac.n == 0 {
			return engine.Null
		}
		return engine.NewFloat(ac.max)
	case AggStdev:
		if ac.n < 2 {
			return engine.Null
		}
		n := float64(ac.n)
		v := (ac.sq - ac.sum*ac.sum/n) / (n - 1)
		if v < 0 {
			v = 0
		}
		return engine.NewFloat(math.Sqrt(v))
	default:
		return engine.Null
	}
}

// Aggregate reduces one attribute over all populated cells to a single
// value.
func (a *Array) Aggregate(kind AggKind, attr string) (engine.Value, error) {
	ai, err := a.attrIndex(attr)
	if err != nil {
		return engine.Null, err
	}
	ac := newAggAcc(kind)
	if a.dense {
		// Tight loop over the attribute vector: the array engine's edge.
		col := a.data[ai]
		if kind == AggAvg || kind == AggSum || kind == AggCount {
			// These need only the count and sum, so skip add's square
			// and min/max updates, and read FLOAT cells without a call.
			// NaN (and NULL) cells are skipped as in add.
			col = col[:len(a.filled)]
			var n int64
			var sum float64
			for idx, ok := range a.filled {
				if !ok {
					continue
				}
				v := &col[idx]
				f := v.F
				if v.Kind != engine.TypeFloat {
					f = v.AsFloat()
				}
				if f == f {
					n++
					sum += f
				}
			}
			ac.n, ac.sum = n, sum
			return ac.result(), nil
		}
		for idx, ok := range a.filled {
			if ok {
				ac.add(col[idx].AsFloat())
			}
		}
		return ac.result(), nil
	}
	err = a.Iterate(func(_ []int64, vals engine.Tuple) error {
		ac.add(vals[ai].AsFloat())
		return nil
	})
	if err != nil {
		return engine.Null, err
	}
	return ac.result(), nil
}

// AggregateBy reduces an attribute grouped by one dimension, returning a
// 1-D array indexed by that dimension.
func (a *Array) AggregateBy(kind AggKind, attr, dim string) (*Array, error) {
	ai, err := a.attrIndex(attr)
	if err != nil {
		return nil, err
	}
	di := -1
	for i, d := range a.Dims {
		if d.Name == dim {
			di = i
			break
		}
	}
	if di < 0 {
		return nil, fmt.Errorf("array: %s: no dimension %q", a.Name, dim)
	}
	d := a.Dims[di]
	accs := make([]*aggAcc, d.Len())
	for i := range accs {
		accs[i] = newAggAcc(kind)
	}
	err = a.Iterate(func(coords []int64, vals engine.Tuple) error {
		accs[coords[di]-d.Low].add(vals[ai].AsFloat())
		return nil
	})
	if err != nil {
		return nil, err
	}
	out, err := New(a.Name+"_aggby", []Dim{{Name: d.Name, Low: d.Low, High: d.High}},
		[]engine.Column{engine.Col(string(kind)+"_"+attr, engine.TypeFloat)}, true)
	if err != nil {
		return nil, err
	}
	for i, ac := range accs {
		if err := out.Set([]int64{d.Low + int64(i)}, engine.Tuple{ac.result()}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Regrid partitions the domain into blocks of the given per-dimension
// sizes and aggregates one attribute within each block, producing a
// coarser array — the core of ScalaR's multi-resolution views.
func (a *Array) Regrid(block []int64, kind AggKind, attr string) (*Array, error) {
	if len(block) != len(a.Dims) {
		return nil, fmt.Errorf("array: %s: regrid needs %d block sizes", a.Name, len(a.Dims))
	}
	ai, err := a.attrIndex(attr)
	if err != nil {
		return nil, err
	}
	dims := make([]Dim, len(a.Dims))
	for i, d := range a.Dims {
		if block[i] <= 0 {
			return nil, fmt.Errorf("array: %s: block size must be positive", a.Name)
		}
		n := (d.Len() + block[i] - 1) / block[i]
		dims[i] = Dim{Name: d.Name, Low: 0, High: n - 1}
	}
	accs := map[int64]*aggAcc{}
	outShape, err := New(a.Name+"_regrid", dims,
		[]engine.Column{engine.Col(string(kind)+"_"+attr, engine.TypeFloat)}, true)
	if err != nil {
		return nil, err
	}
	bcoords := make([]int64, len(a.Dims))
	err = a.Iterate(func(coords []int64, vals engine.Tuple) error {
		for i := range coords {
			bcoords[i] = (coords[i] - a.Dims[i].Low) / block[i]
		}
		idx, err := outShape.linear(bcoords)
		if err != nil {
			return err
		}
		ac, ok := accs[idx]
		if !ok {
			ac = newAggAcc(kind)
			accs[idx] = ac
		}
		ac.add(vals[ai].AsFloat())
		return nil
	})
	if err != nil {
		return nil, err
	}
	coords := make([]int64, len(dims))
	for idx, ac := range accs {
		outShape.delinear(idx, coords)
		if err := outShape.Set(coords, engine.Tuple{ac.result()}); err != nil {
			return nil, err
		}
	}
	return outShape, nil
}

// Window computes a centred sliding-window aggregate over a 1-D array
// (radius cells on each side), the primitive behind waveform smoothing
// and the real-time monitoring reference profiles.
func (a *Array) Window(radius int64, kind AggKind, attr string) (*Array, error) {
	if len(a.Dims) != 1 {
		return nil, fmt.Errorf("array: %s: Window requires a 1-D array", a.Name)
	}
	vals, err := a.Floats(attr)
	if err != nil {
		return nil, err
	}
	d := a.Dims[0]
	out, err := New(a.Name+"_window", []Dim{{Name: d.Name, Low: d.Low, High: d.High}},
		[]engine.Column{engine.Col(string(kind)+"_"+attr, engine.TypeFloat)}, true)
	if err != nil {
		return nil, err
	}
	n := int64(len(vals))
	for i := int64(0); i < n; i++ {
		lo, hi := i-radius, i+radius
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		ac := newAggAcc(kind)
		for j := lo; j <= hi; j++ {
			ac.add(vals[j])
		}
		if err := out.Set([]int64{d.Low + i}, engine.Tuple{ac.result()}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Transpose swaps the two dimensions of a 2-D array.
func (a *Array) Transpose() (*Array, error) {
	if len(a.Dims) != 2 {
		return nil, fmt.Errorf("array: %s: Transpose requires a 2-D array", a.Name)
	}
	dims := []Dim{a.Dims[1], a.Dims[0]}
	out, err := New(a.Name+"_t", cloneDims(dims), a.Attrs, a.dense)
	if err != nil {
		return nil, err
	}
	err = a.Iterate(func(coords []int64, vals engine.Tuple) error {
		return out.Set([]int64{coords[1], coords[0]}, vals.Clone())
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Matmul multiplies two 2-D arrays on the named attributes, treating
// empty cells as zero (so it works for both dense and sparse operands).
// Result dimensions are rebased to zero.
func Matmul(a, b *Array, attrA, attrB string) (*Array, error) {
	if len(a.Dims) != 2 || len(b.Dims) != 2 {
		return nil, fmt.Errorf("array: Matmul requires 2-D arrays")
	}
	if a.Dims[1].Len() != b.Dims[0].Len() {
		return nil, fmt.Errorf("array: Matmul shape mismatch: %d vs %d", a.Dims[1].Len(), b.Dims[0].Len())
	}
	ai, err := a.attrIndex(attrA)
	if err != nil {
		return nil, err
	}
	bi, err := b.attrIndex(attrB)
	if err != nil {
		return nil, err
	}
	m, k, n := a.Dims[0].Len(), a.Dims[1].Len(), b.Dims[1].Len()

	// Densify operands into float matrices for a cache-friendly kernel.
	am := make([]float64, m*k)
	_ = a.Iterate(func(coords []int64, vals engine.Tuple) error {
		r, c := coords[0]-a.Dims[0].Low, coords[1]-a.Dims[1].Low
		am[r*k+c] = vals[ai].AsFloat()
		return nil
	})
	bm := make([]float64, k*n)
	_ = b.Iterate(func(coords []int64, vals engine.Tuple) error {
		r, c := coords[0]-b.Dims[0].Low, coords[1]-b.Dims[1].Low
		bm[r*n+c] = vals[bi].AsFloat()
		return nil
	})
	cm := make([]float64, m*n)
	for i := int64(0); i < m; i++ {
		for l := int64(0); l < k; l++ {
			av := am[i*k+l]
			if av == 0 {
				continue
			}
			row := bm[l*n : (l+1)*n]
			out := cm[i*n : (i+1)*n]
			for j, bv := range row {
				out[j] += av * bv
			}
		}
	}
	out, err := New(a.Name+"_x_"+b.Name,
		[]Dim{{Name: a.Dims[0].Name, Low: 0, High: m - 1}, {Name: b.Dims[1].Name, Low: 0, High: n - 1}},
		[]engine.Column{engine.Col("v", engine.TypeFloat)}, true)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < m; i++ {
		for j := int64(0); j < n; j++ {
			if err := out.Set([]int64{i, j}, engine.Tuple{engine.NewFloat(cm[i*n+j])}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func cloneDims(dims []Dim) []Dim {
	out := make([]Dim, len(dims))
	copy(out, dims)
	return out
}
