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
	b2      Vector // squared off-diagonal
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
// whole space. θ is the top eigenvalue of the k'×k' tridiagonal, rounded up
// to the least float at which its Sturm count says every eigenvalue lies
// below — a single float, since that count is monotone in IEEE arithmetic,
// found by a Newton-started Sturm solve (tridiagTop). The result is thus
// exact up to round-off in the matrix-vector products; no iteration cap or
// tolerance decides it.
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
	s.b2 = growVec(s.b2, k)
	t, w, a, b, b2, d := s.t, s.y, s.a, s.b, s.b2, s.d
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
		theta = tridiagTop(a[:j+1], b2[:j], theta, bound, d[:j+1])
		if j+1 == k || beta*ritzLast(b[:j], d[:j+1]) <= 4*epsilon*theta {
			return math.Sqrt(theta)
		}
		b[j], b2[j], prevBeta = beta, beta*beta, beta
		q = s.q[(j+1)*k : (j+2)*k]
		for i := range q {
			q[i] = w[i] / beta
		}
	}
}

// epsilon is the float64 unit round-off 2⁻⁵².
const epsilon = 0x1p-52

// tridiagTop returns the largest eigenvalue θ of the symmetric tridiagonal
// matrix T with diagonal a and squared off-diagonal b2 (b2ᵢ = bᵢ²), rounded
// up to a float: the least float x > lo at which every pivot of
// T − xI = LDLᵀ is negative, leaving those pivots in d. lo ≤ θ (the
// previous Lanczos step's value, by interlacing) and hi ≥ θ (Gershgorin)
// bracket it.
//
// The computed Sturm count of this pivot recurrence is monotone in x under
// IEEE arithmetic (Demmel, Dhillon & Ren, ETNA 3, 1995), so that float is
// one well-defined answer: any search that keeps a lower end that is not
// all-below and an all-below upper end, and shrinks them to adjacent
// floats, returns it. Every point tried is tested, so the way points are
// chosen costs passes, never the answer.
//
// The points come from a Newton descent from the upper end on
// f(x) = log|det(T − xI)| = Σ log|dᵢ|, whose slope f′ the testing pass
// yields too. For x above every eigenvalue, x − 1/f′(x) stays above θ in
// exact arithmetic and converges to it, quadratically unless θ is
// multiple or clustered. The descent ends when a Newton point tests not
// all-below or falls outside (lo, hi), or after maxNewton passes. An ulp
// gallop from the end it finished next to — up from lo if its last point
// was at or below lo, down from hi otherwise — and a bisection on the
// float bit patterns (non-negative floats order like their bits) then
// close the bracket. Over the 14,792 solves in certifying the 206 e2ebench
// certify-cold instances (every admitted pair at both sizes) that
// takes 8.83 passes each on average, where bisection took 51.6.
//
//gossip:hotpath
func tridiagTop(a, b2 Vector, lo, hi float64, d Vector) float64 {
	if hi == 0 {
		return 0
	}
	hi += hi / 1024 // strictly above every eigenvalue
	_, slope := sturm(a, b2, hi, d)
	at := hi // the point whose pivots d holds
	fromLo := false
	for i := 0; i < maxNewton; i++ {
		x := hi - 1/slope
		if !(lo < x && x < hi) {
			fromLo = x <= lo
			break
		}
		below, s := sturm(a, b2, x, d)
		at = x
		if !below {
			lo, fromLo = x, true
			break
		}
		hi, slope = x, s
	}
	// Gallop 1, 2, 4, … ulps from the end next to θ until the bracket
	// flips or closes.
	for k := uint64(1); ; k <<= 1 {
		hb, lb := math.Float64bits(hi), math.Float64bits(lo)
		if hb <= lb+k {
			break
		}
		if fromLo {
			x := math.Float64frombits(lb + k)
			at = x
			if allBelow(a, b2, x, d) {
				hi = x
				break
			}
			lo = x
		} else {
			x := math.Float64frombits(hb - k)
			at = x
			if !allBelow(a, b2, x, d) {
				lo = x
				break
			}
			hi = x
		}
	}
	for hb, lb := math.Float64bits(hi), math.Float64bits(lo); hb > lb+1; {
		mb := lb + (hb-lb)/2
		x := math.Float64frombits(mb)
		at = x
		if allBelow(a, b2, x, d) {
			hb, hi = mb, x
		} else {
			lb = mb
		}
	}
	if at != hi {
		allBelow(a, b2, hi, d)
	}
	return hi
}

// maxNewton caps the Newton descent, which near a cluster of m eigenvalues
// closes only 1/m of the gap per pass; the gallop and bisection finish
// from whatever bracket it leaves.
const maxNewton = 32

// allBelow reports whether every eigenvalue of T lies below x: by
// Sylvester's law of inertia, whether every pivot of T − xI = LDLᵀ, stored
// in d, is negative.
func allBelow(a, b2 Vector, x float64, d Vector) bool {
	below := true
	for i, ai := range a {
		p := ai - x
		if i > 0 {
			p -= b2[i-1] / d[i-1]
		}
		below = below && p < 0
		d[i] = p
	}
	return below
}

// sturm is allBelow that also returns the slope
// f′(x) = Σ dᵢ′/dᵢ of f(x) = log|det(T − xI)| = Σ log|dᵢ|, carrying
// dᵢ′ = −1 + (b²ᵢ₋₁/dᵢ₋₁)·(dᵢ₋₁′/dᵢ₋₁) along the same pivots.
func sturm(a, b2 Vector, x float64, d Vector) (below bool, slope float64) {
	below = true
	var s float64 // dᵢ₋₁′/dᵢ₋₁
	for i, ai := range a {
		p, dp := ai-x, -1.0
		if i > 0 {
			r := b2[i-1] / d[i-1]
			p -= r
			dp += r * s
		}
		below = below && p < 0
		d[i] = p
		s = dp / p
		slope += s
	}
	return below, slope
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
