// The Sturm bisection tridiagTop replaced, kept as the oracle its Newton
// solve must match bit for bit, and a copy of the Lanczos loop that runs on
// it.
package matrix

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// bisectTop is the reference tridiagTop: Sturm-sequence bisection on
// [lo, hi] down to adjacent floats, b the off-diagonal (not squared). It
// returns the upper end of the final bracket, leaving in d the pivots of
// T − θI = LDLᵀ.
func bisectTop(a, b Vector, lo, hi float64, d Vector) float64 {
	if hi == 0 {
		return 0
	}
	hi += hi / 1024 // strictly above every eigenvalue
	for mid := lo + (hi-lo)/2; lo < mid && mid < hi; mid = lo + (hi-lo)/2 {
		if bisectBelow(a, b, mid, d) {
			hi = mid
		} else {
			lo = mid
		}
	}
	bisectBelow(a, b, hi, d)
	return hi
}

// bisectBelow is allBelow squaring the off-diagonal in the pass.
func bisectBelow(a, b Vector, x float64, d Vector) bool {
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

// topSolver is the tridiagonal solve a Lanczos run calls at every step.
type topSolver func(a, b Vector, lo, hi float64, d Vector) float64

// lanczosNorm is OpNorm2's loop with its tridiagonal solve replaced by top.
func lanczosNorm(m Operator, top topSolver) float64 {
	rows, k := m.Rows(), m.Cols()
	if rows == 0 || k == 0 {
		return 0
	}
	t, w, qs := make(Vector, rows), make(Vector, k), make(Vector, k*k)
	a, b, d := make(Vector, k), make(Vector, k), make(Vector, k)
	q := qs[:k]
	for i := range q {
		q[i] = 1 + float64(i%7)/8
	}
	_ = q.Normalize()
	var theta, bound, prevBeta float64
	for j := 0; ; j++ {
		m.MulVecTo(t, q)
		m.TransposeMulVecTo(w, t)
		a[j] = q.Dot(w)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i <= j; i++ {
				qi := qs[i*k : (i+1)*k]
				c := qi.Dot(w)
				for l, v := range qi {
					w[l] -= c * v
				}
			}
		}
		beta := w.Norm2()
		bound = math.Max(bound, a[j]+prevBeta+beta)
		theta = top(a[:j+1], b[:j], theta, bound, d[:j+1])
		if j+1 == k || beta*ritzLast(b[:j], d[:j+1]) <= 4*epsilon*theta {
			return math.Sqrt(theta)
		}
		b[j], prevBeta = beta, beta
		q = qs[(j+1)*k : (j+2)*k]
		for i := range q {
			q[i] = w[i] / beta
		}
	}
}

// tridiagCall is one recorded tridiagTop call.
type tridiagCall struct {
	a, b   Vector
	lo, hi float64
}

// recordCalls returns the tridiagonal solves of a Lanczos run on m.
func recordCalls(m Operator) []tridiagCall {
	var calls []tridiagCall
	lanczosNorm(m, func(a, b Vector, lo, hi float64, d Vector) float64 {
		calls = append(calls, tridiagCall{a.Clone(), b.Clone(), lo, hi})
		return bisectTop(a, b, lo, hi, d)
	})
	return calls
}

// tridiagCases returns tridiagonals (a, b) with len(b) = len(a) − 1 and
// non-negative entries, like the Gram tridiagonals of a Lanczos run:
// random ones of 1–64 rows at scales 1e-8 to 1e3, and repeated diagonals,
// tight clusters and tiny off-diagonals.
func tridiagCases() [][2]Vector {
	rng := rand.New(rand.NewSource(17))
	var cases [][2]Vector
	add := func(a, b Vector) { cases = append(cases, [2]Vector{a, b}) }
	for _, scale := range []float64{1e-8, 1e-4, 1e-2, 1, 7.5, 1e3} {
		for _, n := range []int{1, 2, 3, 5, 6, 8, 13, 24, 48, 64} {
			a, b := make(Vector, n), make(Vector, n-1)
			for i := range a {
				a[i] = scale * rng.Float64()
			}
			for i := range b {
				b[i] = scale * rng.Float64()
			}
			add(a, b)
		}
	}
	for _, n := range []int{2, 4, 7, 16, 64} {
		// Repeated diagonal, uniform coupling.
		a, b := make(Vector, n), make(Vector, n-1)
		for i := range a {
			a[i] = 2
		}
		for i := range b {
			b[i] = 1
		}
		add(a, b)
		// Repeated diagonal, tiny off-diagonals: n eigenvalues within
		// round-off of each other.
		a, b = make(Vector, n), make(Vector, n-1)
		for i := range a {
			a[i] = 3
		}
		for i := range b {
			b[i] = 1e-9 * (1 + rng.Float64())
		}
		add(a, b)
		// A tight cluster at the top: diagonals a few ulps apart.
		a, b = make(Vector, n), make(Vector, n-1)
		for i := range a {
			a[i] = 5 + float64(i)*0x1p-50
		}
		for i := range b {
			b[i] = 1e-12 * rng.Float64()
		}
		add(a, b)
		// Tiny off-diagonals on a spread diagonal, including ones whose
		// square underflows to zero.
		a, b = make(Vector, n), make(Vector, n-1)
		for i := range a {
			a[i] = rng.Float64()
		}
		for i := range b {
			b[i] = math.Pow(10, -20*float64(i%10)) * rng.Float64()
		}
		add(a, b)
		// Zero diagonal.
		a, b = make(Vector, n), make(Vector, n-1)
		for i := range b {
			b[i] = rng.Float64()
		}
		add(a, b)
	}
	return cases
}

// squares returns b2ᵢ = bᵢ², as OpNorm2 keeps it.
func squares(b Vector) Vector {
	b2 := make(Vector, len(b))
	for i, bi := range b {
		b2[i] = bi * bi
	}
	return b2
}

// checkTop requires tridiagTop and bisectTop to return the same float and
// leave the same pivots in d.
func checkTop(t testing.TB, a, b Vector, lo, hi float64) float64 {
	t.Helper()
	wd, gd := make(Vector, len(a)), make(Vector, len(a))
	want := bisectTop(a, b, lo, hi, wd)
	got := tridiagTop(a, squares(b), lo, hi, gd)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("a=%v b=%v lo=%v hi=%v: θ = %v, bisection %v", a, b, lo, hi, got, want)
	}
	for i := range wd {
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Fatalf("a=%v b=%v lo=%v hi=%v: pivot %d = %v, bisection %v", a, b, lo, hi, i, gd[i], wd[i])
		}
	}
	return want
}

// checkMinors solves every leading minor of (a, b) the way OpNorm2 does —
// hi the running Gershgorin bound, lo the previous minor's θ — and also
// with lo = 0, requiring the kernel to match the oracle on each.
func checkMinors(t testing.TB, a, b Vector) {
	t.Helper()
	var theta, bound float64
	for j := range a {
		row := a[j]
		if j > 0 {
			row += b[j-1]
		}
		if j < len(b) {
			row += b[j]
		}
		bound = math.Max(bound, row)
		checkTop(t, a[:j+1], b[:j], 0, bound)
		theta = checkTop(t, a[:j+1], b[:j], theta, bound)
	}
}

// TestTridiagTopMatchesBisection requires the Newton solve to return
// exactly the bisection's θ and pivots on every leading minor of random
// and adversarial tridiagonals.
func TestTridiagTopMatchesBisection(t *testing.T) {
	for _, c := range tridiagCases() {
		checkMinors(t, c[0], c[1])
	}
}

// FuzzTridiagTop checks every leading minor of a fuzzed tridiagonal. The
// input is its entries as little-endian float64s, a₀ b₀ a₁ b₁ …, taken
// absolute and capped at 64 rows; the corpus is seeded with the cases of
// TestTridiagTopMatchesBisection.
func FuzzTridiagTop(f *testing.F) {
	for _, c := range tridiagCases() {
		a, b := c[0], c[1]
		data := make([]byte, 0, 16*len(a))
		for i, ai := range a {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(ai))
			if i < len(b) {
				data = binary.LittleEndian.AppendUint64(data, math.Float64bits(b[i]))
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a, b Vector
		for i := 0; i+8 <= len(data) && len(a) < 64; i += 8 {
			x := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
			if x > 1e150 || math.IsNaN(x) {
				t.Skip("entries must be finite and square to a finite float")
			}
			if i%16 == 0 {
				a = append(a, x)
			} else {
				b = append(b, x)
			}
		}
		if len(a) == 0 {
			t.Skip()
		}
		checkMinors(t, a, b[:len(a)-1])
	})
}

// randomNonNegative returns a random non-negative rows×k matrix with about a
// third of its entries non-zero.
func randomNonNegative(rng *rand.Rand, rows, k int) *Dense {
	m := NewDense(rows, k)
	for i := 0; i < rows; i++ {
		for j := 0; j < k; j++ {
			if rng.Intn(3) == 0 {
				m.Set(i, j, rng.Float64())
			}
		}
	}
	return m
}

// TestOpNorm2MatchesBisectionLanczos requires OpNorm2 to return the same
// float as the Lanczos loop running on the bisection oracle.
func TestOpNorm2MatchesBisectionLanczos(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var s NormScratch
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(48)
		m := randomNonNegative(rng, 1+rng.Intn(48), k)
		want := lanczosNorm(m, bisectTop)
		if got := OpNorm2(m, &s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (%d×%d): OpNorm2 = %v, bisection Lanczos %v", trial, m.Rows(), k, got, want)
		}
	}
}

// BenchmarkTridiagTop times the Newton solve (kernel) and the bisection it
// replaced (oracle) over the same tridiagonals: every solve the Lanczos
// runs of 256 random non-negative matrices make, shaped like delay-matrix
// blocks (2–16 rows and columns; the certify-cold tridiagonals average
// 5.3 rows).
func BenchmarkTridiagTop(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	var calls []tridiagCall
	for i := 0; i < 256; i++ {
		calls = append(calls, recordCalls(randomNonNegative(rng, 2+rng.Intn(15), 2+rng.Intn(15)))...)
	}
	b2s := make([]Vector, len(calls))
	for i, c := range calls {
		b2s[i] = squares(c.b)
	}
	d := make(Vector, 16)
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, c := range calls {
				tridiagTop(c.a, b2s[j], c.lo, c.hi, d[:len(c.a)])
			}
		}
		b.ReportMetric(float64(len(calls)), "solves/op")
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range calls {
				bisectTop(c.a, c.b, c.lo, c.hi, d[:len(c.a)])
			}
		}
		b.ReportMetric(float64(len(calls)), "solves/op")
	})
}
