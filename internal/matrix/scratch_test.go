// Allocation discipline of the scratch-based norm routines: the power
// iteration behind every ‖M(λ)‖ evaluation must reuse its vectors, so the
// λ loops of the bound root finders and the certification pipeline run with
// zero steady-state allocations.
package matrix

import (
	"math/rand"
	"testing"
)

// randomCSR builds a deterministic pseudo-random sparse non-negative matrix
// shaped like a delay matrix (a few entries per row).
func randomCSR(rows, cols, perRow int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var ts []Triplet
	for i := 0; i < rows; i++ {
		for k := 0; k < perRow; k++ {
			ts = append(ts, Triplet{Row: i, Col: rng.Intn(cols), Val: rng.Float64()})
		}
	}
	return NewCSR(rows, cols, ts)
}

func randomDense(rows, cols int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Intn(3) == 0 {
				m.Set(i, j, rng.Float64())
			}
		}
	}
	return m
}

// TestNorm2ScratchMatchesNorm2 pins that a scratch reused across many
// matrices of different shapes produces exactly the fresh-allocation result.
func TestNorm2ScratchMatchesNorm2(t *testing.T) {
	var s NormScratch
	for seed := int64(0); seed < 8; seed++ {
		c := randomCSR(20+int(seed)*7, 25+int(seed)*3, 3, seed)
		if got, want := c.Norm2Scratch(&s), c.Norm2(); got != want {
			t.Errorf("seed %d: CSR Norm2Scratch = %v, Norm2 = %v", seed, got, want)
		}
		d := randomDense(15+int(seed)*5, 10+int(seed)*4, seed)
		if got, want := OpNorm2(d, &s), Norm2(d); got != want {
			t.Errorf("seed %d: Dense OpNorm2 = %v, Norm2 = %v", seed, got, want)
		}
	}
}

// TestNormZeroAlloc pins the scratch contract: after one warm-up call, the
// CSR and Dense norm evaluations allocate nothing, also when one scratch
// serves blocks of alternating shapes.
func TestNormZeroAlloc(t *testing.T) {
	c := randomCSR(120, 120, 4, 42)
	d := randomDense(40, 35, 42)
	blocks := []*Dense{randomDense(12, 9, 5), randomDense(9, 12, 6)}
	var s NormScratch
	c.Norm2Scratch(&s)
	OpNorm2(d, &s)

	if allocs := testing.AllocsPerRun(50, func() { c.Norm2Scratch(&s) }); allocs != 0 {
		t.Errorf("CSR Norm2Scratch allocates %.1f per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { OpNorm2(d, &s) }); allocs != 0 {
		t.Errorf("Dense OpNorm2 allocates %.1f per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		for _, b := range blocks {
			OpNorm2(b, &s)
		}
	}); allocs != 0 {
		t.Errorf("OpNorm2 over alternating block shapes allocates %.1f per run, want 0", allocs)
	}
}

// TestMulVecToMatchesMulVec pins the To-variants against their allocating
// counterparts, including the overwrite semantics of a dirty destination.
func TestMulVecToMatchesMulVec(t *testing.T) {
	c := randomCSR(30, 22, 3, 7)
	d := randomDense(18, 26, 7)
	v22 := make(Vector, 22)
	v30 := make(Vector, 30)
	v26 := make(Vector, 26)
	v18 := make(Vector, 18)
	for i := range v22 {
		v22[i] = float64(i%5) - 2
	}
	for i := range v30 {
		v30[i] = float64(i%7) - 3
	}
	for i := range v26 {
		v26[i] = float64(i%4) - 1
	}
	for i := range v18 {
		v18[i] = float64(i%6) - 2
	}
	dirty := func(n int) Vector {
		dst := make(Vector, n)
		for i := range dst {
			dst[i] = 999
		}
		return dst
	}
	cases := []struct{ got, want Vector }{
		{c.MulVecTo(dirty(30), v22), c.MulVec(v22)},
		{c.TransposeMulVecTo(dirty(22), v30), c.TransposeMulVec(v30)},
		{d.MulVecTo(dirty(18), v26), d.MulVec(v26)},
		{d.TransposeMulVecTo(dirty(26), v18), d.TransposeMulVec(v18)},
	}
	for i, cse := range cases {
		for j := range cse.want {
			if cse.got[j] != cse.want[j] {
				t.Fatalf("case %d: component %d = %v, want %v", i, j, cse.got[j], cse.want[j])
			}
		}
	}
}

// BenchmarkMatrixNorm measures the zero-alloc spectral-norm evaluation on a
// delay-matrix-shaped sparse operator — the inner move of every λ evaluation
// in the certification pipeline. BENCH.json pins its allocs at zero.
func BenchmarkMatrixNorm(b *testing.B) {
	m := randomCSR(2048, 2048, 6, 1)
	var s NormScratch
	m.Norm2Scratch(&s)
	b.ReportAllocs()
	b.ResetTimer()
	var norm float64
	for i := 0; i < b.N; i++ {
		norm = m.Norm2Scratch(&s)
	}
	b.ReportMetric(norm, "norm")
}
