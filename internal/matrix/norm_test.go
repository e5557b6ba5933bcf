package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNorm2Diagonal(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {0, 2}})
	if got := Norm2(m); math.Abs(got-3) > 1e-9 {
		t.Errorf("‖diag(3,2)‖ = %g, want 3", got)
	}
}

func TestNorm2RankOne(t *testing.T) {
	// For a rank-one matrix u·vᵀ the spectral norm is |u|·|v|.
	u := Vector{1, 2, 2}
	v := Vector{3, 4}
	m := NewDense(3, 2)
	for i := range u {
		for j := range v {
			m.Set(i, j, u[i]*v[j])
		}
	}
	want := u.Norm2() * v.Norm2() // 3 * 5
	if got := Norm2(m); math.Abs(got-want) > 1e-9 {
		t.Errorf("rank-one norm = %g, want %g", got, want)
	}
}

func TestNorm2KnownSymmetric(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 3 and 1.
	m := FromRows([][]float64{{2, 1}, {1, 2}})
	if got := Norm2(m); math.Abs(got-3) > 1e-9 {
		t.Errorf("‖[[2,1],[1,2]]‖ = %g, want 3", got)
	}
}

func TestNorm2Zero(t *testing.T) {
	if got := Norm2(NewDense(4, 4)); got != 0 {
		t.Errorf("norm of zero matrix = %g", got)
	}
}

func TestSpectralRadiusKnown(t *testing.T) {
	// ρ of [[0,1],[1,1]] is the golden ratio φ.
	m := FromRows([][]float64{{0, 1}, {1, 1}})
	phi := (1 + math.Sqrt(5)) / 2
	if got := SpectralRadius(m); math.Abs(got-phi) > 1e-9 {
		t.Errorf("ρ = %g, want φ = %g", got, phi)
	}
}

func TestSpectralRadiusDiag(t *testing.T) {
	m := FromRows([][]float64{{0.5, 0}, {0, 0.25}})
	if got := SpectralRadius(m); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("ρ = %g, want 0.5", got)
	}
}

// TestNormTriangleInequality checks property 5 of Section 2 on random
// non-negative matrices.
func TestNormTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		a := randomMatrix(rng, 5, 5, true)
		b := randomMatrix(rng, 5, 5, true)
		if Norm2(a.Add(b)) > Norm2(a)+Norm2(b)+1e-9 {
			t.Fatalf("triangle inequality violated on trial %d", trial)
		}
	}
}

// TestNormSubmultiplicative checks property 6: ‖MN‖ ≤ ‖M‖·‖N‖.
func TestNormSubmultiplicative(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		a := randomMatrix(rng, 4, 6, true)
		b := randomMatrix(rng, 6, 3, true)
		if Norm2(a.Mul(b)) > Norm2(a)*Norm2(b)+1e-9 {
			t.Fatalf("submultiplicativity violated on trial %d", trial)
		}
	}
}

// TestNormMonotone checks property 4: 0 ≤ M ≤ N entrywise ⇒ ‖M‖ ≤ ‖N‖.
func TestNormMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		m := randomMatrix(rng, 5, 5, true)
		n := m.Clone()
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				n.Set(i, j, n.At(i, j)+rng.Float64())
			}
		}
		if Norm2(m) > Norm2(n)+1e-9 {
			t.Fatalf("monotonicity violated on trial %d", trial)
		}
	}
}

// TestNormScaling checks property 3 via testing/quick: ‖aM‖ = |a|·‖M‖.
func TestNormScaling(t *testing.T) {
	base := FromRows([][]float64{{1, 0.5, 0}, {0, 1, 0.25}, {0.75, 0, 1}})
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e6 {
			return true
		}
		return math.Abs(Norm2(base.Scale(a))-math.Abs(a)*Norm2(base)) < 1e-6*(1+math.Abs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNormEqualsSqrtGramRadius cross-checks ‖M‖ = √ρ(MᵀM) with the two
// independent implementations.
func TestNormEqualsSqrtGramRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		m := randomMatrix(rng, 6, 4, true)
		n1 := Norm2(m)
		n2 := math.Sqrt(SpectralRadius(m.Gram()))
		if math.Abs(n1-n2) > 1e-7*(1+n1) {
			t.Fatalf("‖M‖=%g but √ρ(MᵀM)=%g", n1, n2)
		}
	}
}

// TestSemiEigenLemma21 checks Lemma 2.1: for non-negative M and strictly
// positive x, ρ(M) ≤ the tightest semi-eigenvalue of x.
func TestSemiEigenLemma21(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 50; trial++ {
		m := randomMatrix(rng, 5, 5, true)
		x := make(Vector, 5)
		for i := range x {
			x[i] = 0.1 + rng.Float64()
		}
		e := SemiEigenvalue(m, x)
		if rho := SpectralRadius(m); rho > e+1e-8 {
			t.Fatalf("Lemma 2.1 violated: ρ=%g > e=%g", rho, e)
		}
		if !IsSemiEigenvector(m, x, e, 1e-12) {
			t.Fatal("SemiEigenvalue did not produce a valid semi-eigenvalue")
		}
		if IsSemiEigenvector(m, x, e*0.9-1e-9, 0) && e > 1e-9 {
			t.Fatal("semi-eigenvalue not tight")
		}
	}
}

// TestBlockDiagNorm checks property 8: block-diagonal norm = max block norm.
func TestBlockDiagNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randomMatrix(rng, 3, 2, true)
	b := randomMatrix(rng, 2, 4, true)
	// Assemble the block-diagonal matrix explicitly.
	big := NewDense(5, 6)
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			big.Set(i, j, a.At(i, j))
		}
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			big.Set(3+i, 2+j, b.At(i, j))
		}
	}
	want := math.Max(Norm2(a), Norm2(b))
	if got := Norm2(big); math.Abs(got-want) > 1e-8 {
		t.Errorf("block-diag norm = %g, want %g", got, want)
	}
	if got := BlockDiagNorm2([]*Dense{a, b}); math.Abs(got-want) > 1e-8 {
		t.Errorf("BlockDiagNorm2 = %g, want %g", got, want)
	}
}

func TestVectorOps(t *testing.T) {
	v := Vector{3, 4}
	if v.Norm2() != 5 {
		t.Errorf("|v| = %g, want 5", v.Norm2())
	}
	if v.Dot(Vector{1, 1}) != 7 {
		t.Error("dot wrong")
	}
	if v.NormInf() != 4 {
		t.Error("inf norm wrong")
	}
	w := v.Clone()
	if err := w.Normalize(); err != nil || math.Abs(w.Norm2()-1) > 1e-12 {
		t.Error("normalize failed")
	}
	if err := NewVector(3).Normalize(); err == nil {
		t.Error("normalizing zero vector should fail")
	}
	if !Ones(3).IsPositive() || !Ones(3).IsNonNegative() {
		t.Error("ones vector predicates wrong")
	}
	s := v.Add(Vector{1, 2}).Sub(Vector{1, 2})
	if s[0] != 3 || s[1] != 4 {
		t.Error("add/sub wrong")
	}
}

// SemiEigenvalue returns the smallest e such that m·x ≤ e·x holds
// componentwise, i.e. the tightest semi-eigenvalue of the strictly positive
// semi-eigenvector x for m (Definition 2.2). By Lemma 2.1, ρ(m) ≤ e for any
// non-negative m and strictly positive x. It is the tight reference the
// Lemma 2.1 test checks IsSemiEigenvector and SpectralRadius against.
//
// It panics if x has a non-positive component or the shapes mismatch.
func SemiEigenvalue(m *Dense, x Vector) float64 {
	if m.Rows() != m.Cols() || m.Cols() != len(x) {
		panic("matrix: SemiEigenvalue shape mismatch")
	}
	if !x.IsPositive() {
		panic("matrix: SemiEigenvalue requires a strictly positive vector")
	}
	y := m.MulVec(x)
	var e float64
	for i := range y {
		if r := y[i] / x[i]; r > e {
			e = r
		}
	}
	return e
}
