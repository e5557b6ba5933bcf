// Package matrix provides the dense and sparse linear-algebra substrate used
// by the systolic-gossip lower-bound machinery: Euclidean (spectral) matrix
// norms, spectral radii of non-negative matrices, and the semi-eigenvector
// relaxation of Flammini–Pérennès (Definition 2.2 of the paper).
//
// Everything is implemented with the standard library only. Dense and
// operator norms come from a Lanczos kernel that runs to the last ulp;
// spectral radii and large sparse norms from power iteration, which
// converges for the non-negative matrices that arise from delay digraphs.
package matrix

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a column vector of float64 components.
type Vector []float64

// NewVector returns a zero vector with n components.
func NewVector(n int) Vector { return make(Vector, n) }

// Ones returns the all-ones vector with n components.
func Ones(n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Dot returns the inner product of v and w. It panics if the lengths differ.
//
//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("matrix: dot of vectors with lengths %d and %d", len(v), len(w)))
	}
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	// Scaled accumulation avoids overflow for very large components.
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute component of v.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Scale multiplies every component of v by a in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// Normalize scales v to unit Euclidean norm in place. It returns an error if
// v is the zero vector.
func (v Vector) Normalize() error {
	n := v.Norm2()
	if n == 0 {
		//gossip:allowalloc cold error branch: only the zero vector allocates
		return errors.New("matrix: cannot normalize zero vector")
	}
	v.Scale(1 / n)
	return nil
}

// Add returns v + w as a new vector.
//
//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func (v Vector) Add(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("matrix: add of vectors with lengths %d and %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v − w as a new vector.
//
//gossip:allowpanic shape guard: dimension mismatches are programming errors, not input errors
func (v Vector) Sub(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("matrix: sub of vectors with lengths %d and %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// IsPositive reports whether every component of v is strictly positive.
func (v Vector) IsPositive() bool {
	for _, x := range v {
		if x <= 0 {
			return false
		}
	}
	return true
}

// IsNonNegative reports whether every component of v is ≥ 0.
func (v Vector) IsNonNegative() bool {
	for _, x := range v {
		if x < 0 {
			return false
		}
	}
	return true
}
