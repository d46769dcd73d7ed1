package array

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/engine"
)

func mk1D(t *testing.T, name string, vals []float64) *Array {
	t.Helper()
	a, err := New(name, []Dim{{Name: "i", Low: 0, High: int64(len(vals) - 1)}},
		[]engine.Column{engine.Col("v", engine.TypeFloat)}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if err := a.Set([]int64{int64(i)}, engine.Tuple{engine.NewFloat(v)}); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func mk2D(t *testing.T, name string, rows [][]float64, dense bool) *Array {
	t.Helper()
	a, err := New(name, []Dim{
		{Name: "r", Low: 0, High: int64(len(rows) - 1)},
		{Name: "c", Low: 0, High: int64(len(rows[0]) - 1)},
	}, []engine.Column{engine.Col("v", engine.TypeFloat)}, dense)
	if err != nil {
		t.Fatal(err)
	}
	for r, row := range rows {
		for c, v := range row {
			if err := a.Set([]int64{int64(r), int64(c)}, engine.Tuple{engine.NewFloat(v)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", nil, []engine.Column{engine.Col("v", engine.TypeFloat)}, true); err == nil {
		t.Error("no dims should fail")
	}
	if _, err := New("x", []Dim{{Name: "i", Low: 0, High: 9}}, nil, true); err == nil {
		t.Error("no attrs should fail")
	}
	if _, err := New("x", []Dim{{Name: "i", Low: 5, High: 2}}, []engine.Column{engine.Col("v", engine.TypeFloat)}, true); err == nil {
		t.Error("empty domain should fail")
	}
	if _, err := New("x", []Dim{{Name: "i", Low: 0, High: 1 << 40}}, []engine.Column{engine.Col("v", engine.TypeFloat)}, true); err == nil {
		t.Error("huge dense domain should fail")
	}
	// But a huge sparse domain is fine.
	if _, err := New("x", []Dim{{Name: "i", Low: 0, High: 1 << 40}}, []engine.Column{engine.Col("v", engine.TypeFloat)}, false); err != nil {
		t.Errorf("huge sparse domain: %v", err)
	}
}

func TestSetGet(t *testing.T) {
	a := mk1D(t, "a", []float64{1, 2, 3})
	v, ok, err := a.Get([]int64{1})
	if err != nil || !ok || v[0].AsFloat() != 2 {
		t.Errorf("Get = %v %v %v", v, ok, err)
	}
	if _, _, err := a.Get([]int64{99}); err == nil {
		t.Error("out-of-domain Get should fail")
	}
	if err := a.Set([]int64{0}, engine.Tuple{engine.NewFloat(1), engine.NewFloat(2)}); err == nil {
		t.Error("wrong arity Set should fail")
	}
	if a.Count() != 3 {
		t.Errorf("Count = %d", a.Count())
	}
	// Overwrite does not change count.
	_ = a.Set([]int64{0}, engine.Tuple{engine.NewFloat(10)})
	if a.Count() != 3 {
		t.Errorf("Count after overwrite = %d", a.Count())
	}
}

func TestSparseCells(t *testing.T) {
	a, err := New("s", []Dim{{Name: "i", Low: 0, High: 1000000}},
		[]engine.Column{engine.Col("v", engine.TypeFloat)}, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = a.Set([]int64{7}, engine.Tuple{engine.NewFloat(1)})
	_ = a.Set([]int64{999999}, engine.Tuple{engine.NewFloat(2)})
	if a.Count() != 2 {
		t.Errorf("sparse count = %d", a.Count())
	}
	_, ok, _ := a.Get([]int64{8})
	if ok {
		t.Error("empty cell should report !ok")
	}
	// Iterate visits in coordinate order.
	var seen []int64
	_ = a.Iterate(func(coords []int64, _ engine.Tuple) error {
		seen = append(seen, coords[0])
		return nil
	})
	if len(seen) != 2 || seen[0] != 7 || seen[1] != 999999 {
		t.Errorf("sparse iterate order: %v", seen)
	}
}

func TestScanAndFromRelationRoundTrip(t *testing.T) {
	a := mk2D(t, "m", [][]float64{{1, 2}, {3, 4}}, true)
	rel := a.Scan()
	if rel.Len() != 4 || len(rel.Schema.Columns) != 3 {
		t.Fatalf("scan: %v", rel)
	}
	b, err := FromRelation("m2", rel, []string{"r", "c"}, false)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, _ := b.Get([]int64{1, 0})
	if !ok || v[0].AsFloat() != 3 {
		t.Errorf("round trip cell: %v %v", v, ok)
	}
}

func TestFilter(t *testing.T) {
	a := mk1D(t, "a", []float64{1, 5, 2, 8, 3})
	f, err := a.Filter("v > 2.5")
	if err != nil {
		t.Fatal(err)
	}
	if f.Count() != 3 {
		t.Errorf("filter count = %d", f.Count())
	}
	// Filter may reference dimensions too.
	f2, err := a.Filter("i >= 3 AND v > 0")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Count() != 2 {
		t.Errorf("dim filter count = %d", f2.Count())
	}
	if _, err := a.Filter("nonsense >"); err == nil {
		t.Error("bad predicate should fail")
	}
}

func TestSubarray(t *testing.T) {
	a := mk1D(t, "a", []float64{0, 1, 2, 3, 4, 5})
	sub, err := a.Subarray([]int64{2}, []int64{4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Count() != 3 || sub.Dims[0].Low != 0 || sub.Dims[0].High != 2 {
		t.Errorf("subarray shape: %+v count=%d", sub.Dims, sub.Count())
	}
	v, ok, _ := sub.Get([]int64{0})
	if !ok || v[0].AsFloat() != 2 {
		t.Errorf("rebased cell: %v", v)
	}
	if _, err := a.Subarray([]int64{4}, []int64{2}); err == nil {
		t.Error("inverted bounds should fail")
	}
}

func TestApply(t *testing.T) {
	a := mk1D(t, "a", []float64{1, 2, 3})
	b, err := a.Apply("sq", "v * v")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Attrs) != 2 {
		t.Fatalf("apply attrs: %v", b.Attrs)
	}
	v, _, _ := b.Get([]int64{2})
	if v[1].AsFloat() != 9 {
		t.Errorf("apply value: %v", v)
	}
}

func TestAggregate(t *testing.T) {
	a := mk1D(t, "a", []float64{1, 2, 3, 4})
	cases := []struct {
		kind AggKind
		want float64
	}{
		{AggSum, 10}, {AggAvg, 2.5}, {AggMin, 1}, {AggMax, 4}, {AggCount, 4},
	}
	for _, tc := range cases {
		v, err := a.Aggregate(tc.kind, "v")
		if err != nil {
			t.Fatal(err)
		}
		if v.AsFloat() != tc.want {
			t.Errorf("%s = %v, want %v", tc.kind, v, tc.want)
		}
	}
	v, _ := a.Aggregate(AggStdev, "v")
	if math.Abs(v.AsFloat()-math.Sqrt(5.0/3)) > 1e-12 {
		t.Errorf("stdev = %v", v)
	}
	if _, err := a.Aggregate(AggSum, "nope"); err == nil {
		t.Error("unknown attr should fail")
	}
}

// TestAggregateDenseMatchesSparse pins the dense SUM/AVG/COUNT loop to
// the generic path: INT, NULL and NaN cells and an unfilled cell count
// exactly as aggAcc.add counts them.
func TestAggregateDenseMatchesSparse(t *testing.T) {
	cells := []engine.Value{engine.NewFloat(1.5), engine.NewInt(2), engine.Null,
		engine.NewFloat(math.NaN()), engine.NewString("4.25"), engine.NewFloat(-0.5)}
	var arrs []*Array
	for _, dense := range []bool{true, false} {
		a, err := New("a", []Dim{{Name: "i", Low: 0, High: int64(len(cells))}},
			[]engine.Column{engine.Col("v", engine.TypeFloat)}, dense)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range cells { // cell len(cells) stays unfilled
			if err := a.Set([]int64{int64(i)}, engine.Tuple{v}); err != nil {
				t.Fatal(err)
			}
		}
		arrs = append(arrs, a)
	}
	for _, kind := range []AggKind{AggSum, AggAvg, AggCount} {
		d, err := arrs[0].Aggregate(kind, "v")
		if err != nil {
			t.Fatal(err)
		}
		s, err := arrs[1].Aggregate(kind, "v")
		if err != nil {
			t.Fatal(err)
		}
		if engine.Compare(d, s) != 0 || d.Kind != s.Kind {
			t.Errorf("%s: dense %v, sparse %v", kind, d, s)
		}
	}
}

func TestAggregateBy(t *testing.T) {
	a := mk2D(t, "m", [][]float64{{1, 2, 3}, {4, 5, 6}}, true)
	rowSums, err := a.AggregateBy(AggSum, "v", "r")
	if err != nil {
		t.Fatal(err)
	}
	v0, _, _ := rowSums.Get([]int64{0})
	v1, _, _ := rowSums.Get([]int64{1})
	if v0[0].AsFloat() != 6 || v1[0].AsFloat() != 15 {
		t.Errorf("row sums: %v %v", v0, v1)
	}
}

func TestRegrid(t *testing.T) {
	a := mk1D(t, "a", []float64{1, 2, 3, 4, 5, 6})
	g, err := a.Regrid([]int64{2}, AggAvg, "v")
	if err != nil {
		t.Fatal(err)
	}
	if g.Dims[0].Len() != 3 {
		t.Fatalf("regrid shape: %+v", g.Dims)
	}
	v, _, _ := g.Get([]int64{1})
	if v[0].AsFloat() != 3.5 {
		t.Errorf("regrid block avg: %v", v)
	}
	// Uneven final block.
	g2, err := a.Regrid([]int64{4}, AggCount, "v")
	if err != nil {
		t.Fatal(err)
	}
	v, _, _ = g2.Get([]int64{1})
	if v[0].AsInt() != 2 {
		t.Errorf("partial block count: %v", v)
	}
}

func TestWindow(t *testing.T) {
	a := mk1D(t, "a", []float64{1, 2, 3, 4, 5})
	w, err := a.Window(1, AggAvg, "v")
	if err != nil {
		t.Fatal(err)
	}
	v, _, _ := w.Get([]int64{2})
	if v[0].AsFloat() != 3 {
		t.Errorf("window center: %v", v)
	}
	// Edges use truncated windows.
	v, _, _ = w.Get([]int64{0})
	if v[0].AsFloat() != 1.5 {
		t.Errorf("window edge: %v", v)
	}
}

func TestTransposeAndMatmul(t *testing.T) {
	a := mk2D(t, "a", [][]float64{{1, 2, 3}, {4, 5, 6}}, true)
	at, err := a.Transpose()
	if err != nil {
		t.Fatal(err)
	}
	v, _, _ := at.Get([]int64{2, 1})
	if v[0].AsFloat() != 6 {
		t.Errorf("transpose: %v", v)
	}
	b := mk2D(t, "b", [][]float64{{7, 8}, {9, 10}, {11, 12}}, true)
	c, err := Matmul(a, b, "v", "v")
	if err != nil {
		t.Fatal(err)
	}
	// [1 2 3; 4 5 6] x [7 8; 9 10; 11 12] = [58 64; 139 154]
	want := [][]float64{{58, 64}, {139, 154}}
	for r := int64(0); r < 2; r++ {
		for cc := int64(0); cc < 2; cc++ {
			v, _, _ := c.Get([]int64{r, cc})
			if v[0].AsFloat() != want[r][cc] {
				t.Errorf("matmul[%d][%d] = %v, want %v", r, cc, v[0], want[r][cc])
			}
		}
	}
	if _, err := Matmul(a, a, "v", "v"); err == nil {
		t.Error("shape mismatch should fail")
	}
}

func TestMatmulSparseEqualsDense(t *testing.T) {
	rows := [][]float64{{1, 0, 2}, {0, 3, 0}, {4, 0, 5}}
	dense := mk2D(t, "d", rows, true)
	sparse, err := New("s", []Dim{{Name: "r", Low: 0, High: 2}, {Name: "c", Low: 0, High: 2}},
		[]engine.Column{engine.Col("v", engine.TypeFloat)}, false)
	if err != nil {
		t.Fatal(err)
	}
	for r, row := range rows {
		for c, v := range row {
			if v != 0 {
				_ = sparse.Set([]int64{int64(r), int64(c)}, engine.Tuple{engine.NewFloat(v)})
			}
		}
	}
	cd, err := Matmul(dense, dense, "v", "v")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Matmul(sparse, sparse, "v", "v")
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 3; r++ {
		for c := int64(0); c < 3; c++ {
			vd, _, _ := cd.Get([]int64{r, c})
			vs, _, _ := cs.Get([]int64{r, c})
			if vd[0].AsFloat() != vs[0].AsFloat() {
				t.Errorf("sparse/dense mismatch at %d,%d: %v vs %v", r, c, vd[0], vs[0])
			}
		}
	}
}

func TestLinearDelinearRoundTrip(t *testing.T) {
	a, err := New("x", []Dim{
		{Name: "i", Low: -3, High: 5},
		{Name: "j", Low: 10, High: 20},
	}, []engine.Column{engine.Col("v", engine.TypeFloat)}, false)
	if err != nil {
		t.Fatal(err)
	}
	f := func(i, j uint8) bool {
		ci := int64(-3) + int64(i)%9
		cj := int64(10) + int64(j)%11
		idx, err := a.linear([]int64{ci, cj})
		if err != nil {
			return false
		}
		got := make([]int64, 2)
		a.delinear(idx, got)
		return got[0] == ci && got[1] == cj
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreQuery(t *testing.T) {
	s := NewStore()
	s.Put(mk1D(t, "wf", []float64{0, 1, 4, 9, 16, 25}))

	rel, err := s.Query("scan(wf)")
	if err != nil || rel.Len() != 6 {
		t.Fatalf("scan: %v %v", rel, err)
	}
	rel, err = s.Query("aggregate(wf, sum(v))")
	if err != nil || rel.Tuples[0][0].AsFloat() != 55 {
		t.Fatalf("aggregate: %v %v", rel, err)
	}
	rel, err = s.Query("aggregate(filter(wf, v > 3), count(v))")
	if err != nil || rel.Tuples[0][0].AsInt() != 4 {
		t.Fatalf("nested filter: %v %v", rel, err)
	}
	rel, err = s.Query("subarray(wf, 1, 3)")
	if err != nil || rel.Len() != 3 {
		t.Fatalf("subarray: %v %v", rel, err)
	}
	rel, err = s.Query("apply(wf, double, v * 2)")
	if err != nil || len(rel.Schema.Columns) != 3 {
		t.Fatalf("apply: %v %v", rel, err)
	}
	rel, err = s.Query("regrid(wf, 3, max(v))")
	if err != nil || rel.Len() != 2 {
		t.Fatalf("regrid: %v %v", rel, err)
	}
	rel, err = s.Query("window(wf, 1, avg(v))")
	if err != nil || rel.Len() != 6 {
		t.Fatalf("window: %v %v", rel, err)
	}

	// 2-D pipeline.
	s.Put(mk2D(t, "m", [][]float64{{1, 2}, {3, 4}}, true))
	rel, err = s.Query("multiply(m, transpose(m))")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 4 {
		t.Fatalf("multiply result: %v", rel)
	}
	// aggregate by dimension.
	rel, err = s.Query("aggregate(m, sum(v), r)")
	if err != nil || rel.Len() != 2 {
		t.Fatalf("aggregate by: %v %v", rel, err)
	}

	// Errors.
	for _, bad := range []string{
		"nosuch(wf)",
		"scan(missing)",
		"filter(wf)",
		"subarray(wf, 1)",
		"aggregate(wf, frobnicate(v))",
		"scan(wf",
	} {
		if _, err := s.Query(bad); err == nil {
			t.Errorf("Query(%q) should fail", bad)
		}
	}
	if s.Stats().Queries == 0 {
		t.Error("stats should count queries")
	}
}

func TestStoreGetRemove(t *testing.T) {
	s := NewStore()
	s.Put(mk1D(t, "A", []float64{1}))
	if _, err := s.Get("a"); err != nil {
		t.Errorf("case-insensitive Get: %v", err)
	}
	if err := s.Remove("A"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("A"); err == nil {
		t.Error("double remove should fail")
	}
	if len(s.Names()) != 0 {
		t.Errorf("Names = %v", s.Names())
	}
}

func TestFloats(t *testing.T) {
	a := mk1D(t, "a", []float64{1, 2, 3})
	f, err := a.Floats("v")
	if err != nil || len(f) != 3 || f[2] != 3 {
		t.Errorf("Floats: %v %v", f, err)
	}
	m := mk2D(t, "m", [][]float64{{1}}, true)
	if _, err := m.Floats("v"); err == nil {
		t.Error("Floats on 2-D should fail")
	}
}
