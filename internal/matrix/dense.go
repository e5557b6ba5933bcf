package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a dense rows×cols matrix stored in row-major order.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zero rows×cols matrix.
//
//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a Dense matrix from a slice of equal-length rows.
//
//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: ragged rows: row %d has %d columns, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set stores v at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) Vector {
	out := make(Vector, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) Vector {
	out := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Transpose returns mᵀ as a new matrix.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m·b.
//
//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("matrix: product of %dx%d and %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// MulVec returns m·v.
func (m *Dense) MulVec(v Vector) Vector {
	return m.MulVecTo(make(Vector, m.rows), v)
}

// MulVecTo stores m·v into dst (len dst must be m.Rows()) and returns dst —
// the allocation-free form of MulVec.
//
//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func (m *Dense) MulVecTo(dst, v Vector) Vector {
	if m.cols != len(v) {
		panic(fmt.Sprintf("matrix: %dx%d times vector of length %d", m.rows, m.cols, len(v)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("matrix: %dx%d MulVecTo into vector of length %d", m.rows, m.cols, len(dst)))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
	return dst
}

// TransposeMulVec returns mᵀ·v without materializing the transpose.
func (m *Dense) TransposeMulVec(v Vector) Vector {
	return m.TransposeMulVecTo(make(Vector, m.cols), v)
}

// TransposeMulVecTo stores mᵀ·v into dst (len dst must be m.Cols(),
// overwritten) and returns dst — the allocation-free form of
// TransposeMulVec.
//
//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func (m *Dense) TransposeMulVecTo(dst, v Vector) Vector {
	if m.rows != len(v) {
		panic(fmt.Sprintf("matrix: %dx%d transpose times vector of length %d", m.rows, m.cols, len(v)))
	}
	if len(dst) != m.cols {
		panic(fmt.Sprintf("matrix: %dx%d TransposeMulVecTo into vector of length %d", m.rows, m.cols, len(dst)))
	}
	clear(dst)
	for i := 0; i < m.rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, rv := range row {
			dst[j] += rv * vi
		}
	}
	return dst
}

// Add returns m + b.
func (m *Dense) Add(b *Dense) *Dense {
	m.sameShape(b)
	out := NewDense(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = m.data[i] + b.data[i]
	}
	return out
}

// Sub returns m − b.
func (m *Dense) Sub(b *Dense) *Dense {
	m.sameShape(b)
	out := NewDense(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = m.data[i] - b.data[i]
	}
	return out
}

// Scale returns a·m as a new matrix.
func (m *Dense) Scale(a float64) *Dense {
	out := NewDense(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = a * m.data[i]
	}
	return out
}

//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func (m *Dense) sameShape(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
}

// Gram returns mᵀ·m, the Gram matrix whose spectral radius is ‖m‖².
func (m *Dense) Gram() *Dense {
	out := NewDense(m.cols, m.cols)
	for k := 0; k < m.rows; k++ {
		row := m.data[k*m.cols : (k+1)*m.cols]
		for i, ri := range row {
			if ri == 0 {
				continue
			}
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, rj := range row {
				orow[j] += ri * rj
			}
		}
	}
	return out
}

// IsNonNegative reports whether every entry of m is ≥ 0.
func (m *Dense) IsNonNegative() bool {
	for _, v := range m.data {
		if v < 0 {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether m equals its transpose up to tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// MaxEntry returns the largest entry of m (not the largest absolute value).
func (m *Dense) MaxEntry() float64 {
	if len(m.data) == 0 {
		return 0
	}
	max := m.data[0]
	for _, v := range m.data[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// LessEq reports whether m ≤ b entrywise within tol (norm property 4 input).
func (m *Dense) LessEq(b *Dense, tol float64) bool {
	m.sameShape(b)
	for i := range m.data {
		if m.data[i] > b.data[i]+tol {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether m and b agree entrywise within tol.
func (m *Dense) ApproxEqual(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders m for debugging and for the delaytool CLI.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%8.4f", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
