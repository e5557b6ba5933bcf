package matrix

import (
	"fmt"
	"math"
	"sort"
)

// Triplet is a single (row, col, value) entry used to assemble a CSR matrix.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a sparse matrix in compressed-sparse-row format. Delay matrices of
// large protocols have Θ(s) entries per row, so CSR keeps the norm
// computation linear in the number of activations.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// NewCSR assembles a rows×cols CSR matrix from triplets. Duplicate (row,col)
// entries are summed. The input slice is sorted in place.
//
//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func NewCSR(rows, cols int, ts []Triplet) *CSR {
	for _, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			panic(fmt.Sprintf("matrix: triplet (%d,%d) out of range %dx%d", t.Row, t.Col, rows, cols))
		}
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Row != ts[j].Row {
			return ts[i].Row < ts[j].Row
		}
		return ts[i].Col < ts[j].Col
	})
	m := &CSR{
		rows:   rows,
		cols:   cols,
		rowPtr: make([]int, rows+1),
	}
	for i := 0; i < len(ts); {
		j := i
		v := 0.0
		for j < len(ts) && ts[j].Row == ts[i].Row && ts[j].Col == ts[i].Col {
			v += ts[j].Val
			j++
		}
		m.colIdx = append(m.colIdx, ts[i].Col)
		m.vals = append(m.vals, v)
		m.rowPtr[ts[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns the entry at (i, j); absent entries are 0.
//
//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.vals[k]
	}
	return 0
}

// MulVec returns m·v.
func (m *CSR) MulVec(v Vector) Vector {
	return m.MulVecTo(make(Vector, m.rows), v)
}

// MulVecTo stores m·v into dst (len dst must be m.Rows()) and returns dst —
// the allocation-free form of MulVec.
//
//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func (m *CSR) MulVecTo(dst, v Vector) Vector {
	if len(v) != m.cols {
		panic(fmt.Sprintf("matrix: %dx%d CSR times vector of length %d", m.rows, m.cols, len(v)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("matrix: %dx%d CSR MulVecTo into vector of length %d", m.rows, m.cols, len(dst)))
	}
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * v[m.colIdx[k]]
		}
		dst[i] = s
	}
	return dst
}

// TransposeMulVec returns mᵀ·v.
func (m *CSR) TransposeMulVec(v Vector) Vector {
	return m.TransposeMulVecTo(make(Vector, m.cols), v)
}

// TransposeMulVecTo stores mᵀ·v into dst (len dst must be m.Cols(),
// overwritten) and returns dst — the allocation-free form of
// TransposeMulVec.
//
//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func (m *CSR) TransposeMulVecTo(dst, v Vector) Vector {
	if len(v) != m.rows {
		panic(fmt.Sprintf("matrix: %dx%d CSR transpose times vector of length %d", m.rows, m.cols, len(v)))
	}
	if len(dst) != m.cols {
		panic(fmt.Sprintf("matrix: %dx%d CSR TransposeMulVecTo into vector of length %d", m.rows, m.cols, len(dst)))
	}
	clear(dst)
	for i := 0; i < m.rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			dst[m.colIdx[k]] += m.vals[k] * vi
		}
	}
	return dst
}

// Norm2 returns ‖m‖₂ = √ρ(mᵀm) via power iteration using only sparse
// matrix-vector products. Its scratch is O(rows + cols), where OpNorm2's
// Lanczos basis would take cols² — the right trade for one large matrix
// that is not block diagonal (the Section 7 weight matrix W(λ)). The
// iteration stops when successive Rayleigh quotients agree to 1e-12 or
// after 10,000 steps, and a Rayleigh quotient approaches ρ from below.
func (m *CSR) Norm2() float64 {
	var s NormScratch
	return m.Norm2Scratch(&s)
}

// Norm2Scratch computes ‖m‖₂ like Norm2 while drawing every power-iteration
// vector from the scratch; repeated evaluations perform zero steady-state
// allocations.
func (m *CSR) Norm2Scratch(s *NormScratch) float64 {
	if m.rows == 0 || m.cols == 0 || m.NNZ() == 0 {
		return 0
	}
	return math.Sqrt(math.Max(m.gramSpectralRadius(s), 0))
}

// gramSpectralRadius runs power iteration on x ↦ Mᵀ(Mx), drawing every
// vector from the scratch.
func (m *CSR) gramSpectralRadius(s *NormScratch) float64 {
	s.x, s.y, s.t = growVec(s.x, m.cols), growVec(s.y, m.cols), growVec(s.t, m.rows)
	x, y, t := s.x, s.y, s.t
	// Deterministic, strictly positive start vector: guaranteed not to be
	// orthogonal to the Perron vector of a non-negative operator.
	for i := range x {
		x[i] = 1 + float64(i%7)/8
	}
	_ = x.Normalize()
	var prev float64 = -1
	for iter := 0; iter < defaultMaxIter; iter++ {
		m.MulVecTo(t, x)
		m.TransposeMulVecTo(y, t)
		lambda := x.Dot(y) // Rayleigh quotient estimate of ρ(MᵀM)
		ny := y.Norm2()
		if ny == 0 {
			return 0
		}
		y.Scale(1 / ny)
		x, y = y, x
		if prev >= 0 && math.Abs(lambda-prev) <= defaultTol*(1+math.Abs(lambda)) {
			return lambda
		}
		prev = lambda
	}
	return prev
}

// Dense converts m to a dense matrix (intended for small matrices in tests).
func (m *CSR) Dense() *Dense {
	d := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d.Set(i, m.colIdx[k], m.vals[k])
		}
	}
	return d
}
