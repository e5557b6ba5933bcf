package matrix

import (
	"math"
)

// Power-iteration parameters of SpectralRadius and CSR.Norm2, which run on
// non-negative matrices, where power iteration converges.
const (
	defaultMaxIter = 10000
	defaultTol     = 1e-12
)

// Operator is a rows×cols linear map given by its two matrix-vector
// products; *Dense and *CSR implement it, and so can any structured view
// (the delay package's per-vertex blocks) that never materializes a matrix.
type Operator interface {
	Rows() int
	Cols() int
	MulVecTo(dst, v Vector) Vector
	TransposeMulVecTo(dst, v Vector) Vector
}

// Norm2 returns the Euclidean (spectral) matrix norm ‖m‖₂ = √λ_max(mᵀm),
// computed by OpNorm2's Lanczos kernel.
func Norm2(m *Dense) float64 {
	var s NormScratch
	return m.Norm2Scratch(&s)
}

// Norm2Scratch computes ‖m‖₂ like Norm2 while drawing every Lanczos vector
// from the scratch — repeated evaluations perform zero steady-state
// allocations. The result is bit-identical to Norm2.
func (m *Dense) Norm2Scratch(s *NormScratch) float64 { return OpNorm2(m, s) }

// NormScratch holds the working vectors of one norm computation so callers
// evaluating many matrices (or one matrix at many λ) can reuse them. The
// zero value is ready to use; buffers grow on demand and are kept for the
// next call. A NormScratch is not safe for concurrent use — give each
// goroutine its own.
type NormScratch struct {
	x, y, t Vector
	q       Vector // Lanczos basis, one cols-long vector per step
	a, b, d Vector // tridiagonal diagonal, off-diagonal and LDLᵀ pivots
}

func growVec(v Vector, n int) Vector {
	if cap(v) < n {
		//gossip:allowalloc amortized: scratch grows to the high-water mark once and is reused
		return make(Vector, n)
	}
	return v[:n]
}

// OpNorm2 returns ‖m‖₂ = √λ_max(mᵀm) by Lanczos with full
// reorthogonalization on the Gram operator x ↦ mᵀ(mx). The Krylov dimension
// is capped by k = m.Cols(), so the run ends by construction: it stops when
// the new Lanczos vector vanishes, when the Ritz residual of the top Ritz
// pair falls to a few ulps of θ, or after k steps, when the basis spans the
// whole space. θ is the top eigenvalue of the k'×k' tridiagonal, found by
// Sturm bisection to the last ulp, so the result is exact up to round-off
// in the matrix-vector products; there is no iteration cap or tolerance.
// The basis takes k² floats of scratch, which suits the per-vertex blocks
// of a delay matrix; a large sparse matrix goes through CSR.Norm2 instead.
//
//gossip:hotpath
func OpNorm2(m Operator, s *NormScratch) float64 {
	rows, k := m.Rows(), m.Cols()
	if rows == 0 || k == 0 {
		return 0
	}
	s.t, s.y, s.q = growVec(s.t, rows), growVec(s.y, k), growVec(s.q, k*k)
	s.a, s.b, s.d = growVec(s.a, k), growVec(s.b, k), growVec(s.d, k)
	t, w, a, b, d := s.t, s.y, s.a, s.b, s.d
	// Deterministic, strictly positive start vector: never orthogonal to
	// the Perron vector of a non-negative operator.
	q := s.q[:k]
	for i := range q {
		q[i] = 1 + float64(i%7)/8
	}
	_ = q.Normalize() // a positive vector is never zero
	var theta, bound, prevBeta float64
	for j := 0; ; j++ {
		m.MulVecTo(t, q)
		m.TransposeMulVecTo(w, t)
		a[j] = q.Dot(w)
		// Two Gram–Schmidt passes against the whole basis ("twice is
		// enough") subsume the three-term recurrence.
		for pass := 0; pass < 2; pass++ {
			for i := 0; i <= j; i++ {
				qi := s.q[i*k : (i+1)*k]
				c := qi.Dot(w)
				for l, v := range qi {
					w[l] -= c * v
				}
			}
		}
		beta := w.Norm2()
		bound = math.Max(bound, a[j]+prevBeta+beta) // Gershgorin, row j
		theta = tridiagTop(a[:j+1], b[:j], theta, bound, d[:j+1])
		if j+1 == k || beta*ritzLast(b[:j], d[:j+1]) <= 4*epsilon*theta {
			return math.Sqrt(theta)
		}
		b[j], prevBeta = beta, beta
		q = s.q[(j+1)*k : (j+2)*k]
		for i := range q {
			q[i] = w[i] / beta
		}
	}
}

// epsilon is the float64 unit round-off 2⁻⁵².
const epsilon = 0x1p-52

// tridiagTop returns the largest eigenvalue θ of the symmetric tridiagonal
// matrix T with diagonal a and off-diagonal b by Sturm-sequence bisection
// on [lo, hi] down to adjacent floats: lo ≤ θ (the previous Lanczos step's
// value is, by interlacing) and hi ≥ θ (Gershgorin). It returns the upper
// end of the final bracket, leaving in d the pivots of T − θI = LDLᵀ.
func tridiagTop(a, b Vector, lo, hi float64, d Vector) float64 {
	if hi == 0 {
		return 0
	}
	hi += hi / 1024 // strictly above every eigenvalue
	for mid := lo + (hi-lo)/2; lo < mid && mid < hi; mid = lo + (hi-lo)/2 {
		if allBelow(a, b, mid, d) {
			hi = mid
		} else {
			lo = mid
		}
	}
	allBelow(a, b, hi, d)
	return hi
}

// allBelow reports whether every eigenvalue of T lies below x: by
// Sylvester's law of inertia, whether every pivot of T − xI = LDLᵀ, stored
// in d, is negative.
func allBelow(a, b Vector, x float64, d Vector) bool {
	below := true
	for i, ai := range a {
		p := ai - x
		if i > 0 {
			p -= b[i-1] * b[i-1] / d[i-1]
		}
		below = below && p < 0
		d[i] = p
	}
	return below
}

// ritzLast returns |sⱼ|, the last component of the unit eigenvector of T for
// the θ whose pivots d holds: one inverse-iteration step from eⱼ solves
// LDLᵀy = eⱼ back to front, yᵢ = −(bᵢ/dᵢ)·yᵢ₊₁. β·|sⱼ| is the Lanczos
// residual of the Ritz pair.
func ritzLast(b, d Vector) float64 {
	y, sum := 1.0, 1.0
	for i := len(b) - 1; i >= 0; i-- {
		y *= b[i] / d[i]
		sum += y * y
		if sum > 1e200 {
			return 0 // sⱼ is below any residual that matters
		}
	}
	return 1 / math.Sqrt(sum)
}

// SpectralRadius returns ρ(m) for a square non-negative matrix m, computed by
// power iteration with an identity shift (ρ(m+I) = ρ(m)+1 for non-negative m,
// and the shift makes the dominant eigenvalue simple and positive).
//
// It panics if m is not square; callers must pass non-negative matrices.
//
//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func SpectralRadius(m *Dense) float64 {
	n := m.Rows()
	if n != m.Cols() {
		panic("matrix: SpectralRadius of non-square matrix")
	}
	if n == 0 {
		return 0
	}
	x := make(Vector, n)
	for i := range x {
		x[i] = 1 + float64(i%5)/8
	}
	_ = x.Normalize()
	var prev float64 = -1
	for iter := 0; iter < defaultMaxIter; iter++ {
		y := m.MulVec(x)
		for i := range y {
			y[i] += x[i] // shift by identity
		}
		lambda := x.Dot(y)
		ny := y.Norm2()
		if ny == 0 {
			return 0
		}
		y.Scale(1 / ny)
		x = y
		if prev >= 0 && math.Abs(lambda-prev) <= defaultTol*(1+math.Abs(lambda)) {
			return lambda - 1
		}
		prev = lambda
	}
	return prev - 1
}

// IsSemiEigenvector reports whether m·x ≤ e·x componentwise within tol
// (Definition 2.2 of the paper).
func IsSemiEigenvector(m *Dense, x Vector, e, tol float64) bool {
	y := m.MulVec(x)
	for i := range y {
		if y[i] > e*x[i]+tol {
			return false
		}
	}
	return true
}

// BlockDiagNorm2 returns max over the blocks of ‖block‖₂; by norm property 8
// of Section 2 this equals the norm of the block-diagonal matrix assembled
// from the blocks.
func BlockDiagNorm2(blocks []*Dense) float64 {
	var s NormScratch
	return BlockDiagNorm2Scratch(blocks, &s)
}

// BlockDiagNorm2Scratch is BlockDiagNorm2 with every block's Lanczos run
// drawing from one reusable scratch; repeated evaluations over a fixed block
// structure perform zero steady-state allocations.
//
//gossip:hotpath
func BlockDiagNorm2Scratch(blocks []*Dense, s *NormScratch) float64 {
	var max float64
	for _, b := range blocks {
		if n := OpNorm2(b, s); n > max {
			max = n
		}
	}
	return max
}
