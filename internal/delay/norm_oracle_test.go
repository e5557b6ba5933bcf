// Two-sided numerical coverage of the certification norm ‖M(λ₀)‖. The
// kernel (Lanczos on each per-vertex block, norm property 8) is checked
// block by block against oracles kept here in test code: power iteration,
// whose Rayleigh quotient never exceeds ρ(MᵧᵀMᵧ), the Collatz–Wielandt
// bound max_i (MᵧᵀMᵧx)_i/x_i, which never falls below it for a positive x,
// and a Jacobi eigensolver that is exact on small blocks.
package delay_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/delay"
	"repro/internal/matrix"
	"repro/systolic"
)

// oracleSizes are the two smallest settings of every kind with n ≤ 64.
var oracleSizes = map[string][2][]systolic.Param{
	"path":             {{systolic.Nodes(16)}, {systolic.Nodes(32)}},
	"cycle":            {{systolic.Nodes(16)}, {systolic.Nodes(32)}},
	"complete":         {{systolic.Nodes(16)}, {systolic.Nodes(32)}},
	"hypercube":        {{systolic.Dimension(4)}, {systolic.Dimension(5)}},
	"grid":             {{systolic.Rows(4), systolic.Cols(4)}, {systolic.Rows(4), systolic.Cols(8)}},
	"torus":            {{systolic.Rows(4), systolic.Cols(4)}, {systolic.Rows(4), systolic.Cols(8)}},
	"tree":             {{systolic.Degree(2), systolic.Depth(3)}, {systolic.Degree(2), systolic.Depth(4)}},
	"shuffle-exchange": {{systolic.Dimension(4)}, {systolic.Dimension(5)}},
	"ccc":              {{systolic.Dimension(3)}, {systolic.Dimension(4)}},
	"butterfly":        {{systolic.Degree(2), systolic.Diameter(2)}, {systolic.Degree(2), systolic.Diameter(3)}},
	"wbf":              {{systolic.Degree(2), systolic.Diameter(3)}, {systolic.Degree(2), systolic.Diameter(4)}},
	"wbf-digraph":      {{systolic.Degree(2), systolic.Diameter(3)}, {systolic.Degree(2), systolic.Diameter(4)}},
	"debruijn":         {{systolic.Degree(2), systolic.Diameter(4)}, {systolic.Degree(2), systolic.Diameter(5)}},
	"debruijn-digraph": {{systolic.Degree(2), systolic.Diameter(4)}, {systolic.Degree(2), systolic.Diameter(5)}},
	"kautz":            {{systolic.Degree(2), systolic.Diameter(4)}, {systolic.Degree(2), systolic.Diameter(5)}},
	"kautz-digraph":    {{systolic.Degree(2), systolic.Diameter(4)}, {systolic.Degree(2), systolic.Diameter(5)}},
}

// TestCertifyNormTwoSided runs every (kind, protocol) pair that certifies
// at both oracleSizes, plus path/zigzag n=200 (banded blocks with 200
// columns), and asserts on each block Mᵧ of M(λ₀):
//
//	power-iteration quotient − 1e-12 ≤ ‖Mᵧ‖ ≤ Collatz–Wielandt bound + 1e-12,
//
// ‖Mᵧ‖ within 1e-12 of Jacobi when Mᵧ has at most 32 columns, and the
// certificate's ‖M(λ₀)‖ equal to the largest ‖Mᵧ‖.
func TestCertifyNormTwoSided(t *testing.T) {
	if testing.Short() {
		t.Skip("certifies ~200 instances and runs an oracle on every block")
	}
	type instance struct {
		kind, protocol string
		params         []systolic.Param
	}
	var cases []instance
	for _, kind := range systolic.Kinds() {
		sizes, ok := oracleSizes[kind]
		if !ok {
			t.Errorf("registered kind %q has no oracle sizes", kind)
			continue
		}
		for _, proto := range systolic.ProtocolKinds() {
			cases = append(cases, instance{kind, proto, sizes[0]}, instance{kind, proto, sizes[1]})
		}
	}
	cases = append(cases, instance{"path", "zigzag", []systolic.Param{systolic.Nodes(200)}})
	checked := 0
	for _, c := range cases {
		net, p := buildPair(c.kind, c.protocol, c.params)
		if p == nil {
			continue // a construction for another family, or one that rejects the kind
		}
		cert, err := systolic.Certify(context.Background(), net, p, systolic.WithWorkers(1))
		if err != nil || !cert.NormChecked {
			continue
		}
		name := fmt.Sprintf("%s/%s n=%d", c.kind, c.protocol, net.N())
		dg, err := delay.Build(net.G, p, cert.Measured)
		if err != nil {
			t.Fatal(err)
		}
		var maxBlock float64
		seen := make(map[string]bool)
		for y, b := range dg.LocalBlocks(cert.Lambda) {
			key := blockKey(b)
			if seen[key] {
				continue // the oracles are slow; identical blocks have identical norms
			}
			seen[key] = true
			norm := matrix.Norm2(b)
			lo, hi := powerBracket(b)
			if norm < lo-1e-12 || norm > hi+1e-12 {
				t.Errorf("%s block %d: ‖Mᵧ‖ = %.17g outside [%.17g, %.17g]", name, y, norm, lo, hi)
			}
			if b.Cols() <= 32 {
				if exact := jacobiNorm(b); math.Abs(norm-exact) > 1e-12 {
					t.Errorf("%s block %d: ‖Mᵧ‖ = %.17g, Jacobi %.17g", name, y, norm, exact)
				}
			}
			maxBlock = math.Max(maxBlock, norm)
		}
		if math.Abs(cert.NormAtRoot-maxBlock) > 1e-12 {
			t.Errorf("%s: ‖M(λ₀)‖ = %.17g, largest block norm %.17g", name, cert.NormAtRoot, maxBlock)
		}
		checked++
	}
	if checked < 180 {
		t.Errorf("only %d instances certified with a norm check; the pair catalog shrank", checked)
	}
}

// buildPair builds the network and catalog protocol, or returns a nil
// protocol when the construction rejects the kind (some panic instead of
// returning an error).
func buildPair(kind, protocol string, params []systolic.Param) (net *systolic.Network, p *systolic.Protocol) {
	defer func() {
		if recover() != nil {
			p = nil
		}
	}()
	net, err := systolic.New(kind, params...)
	if err != nil {
		return nil, nil
	}
	p, err = systolic.NewProtocol(protocol, net, systolic.DefaultRoundBudget)
	if err != nil {
		return nil, nil
	}
	return net, p
}

// blockKey encodes a block's shape and entries exactly.
func blockKey(b *matrix.Dense) string {
	key := binary.AppendUvarint(nil, uint64(b.Cols()))
	for i := 0; i < b.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(b.At(i, j)))
		}
	}
	return string(key)
}

// powerBracket brackets ‖b‖ = √ρ(bᵀb) from both sides by power iteration
// on bᵀb from a positive start, run until the quotient stalls: the last
// Rayleigh quotient from below, the
// Collatz–Wielandt bound of the last iterate (floored at 1e-300 to keep it
// positive) from above.
func powerBracket(b *matrix.Dense) (lo, hi float64) {
	x := matrix.Ones(b.Cols())
	gram := func(v matrix.Vector) matrix.Vector { return b.TransposeMulVec(b.MulVec(v)) }
	for iter := 0; iter < 5000; iter++ {
		if err := x.Normalize(); err != nil {
			return 0, 0
		}
		y := gram(x)
		q := x.Dot(y)
		x = y
		if q-lo <= 1e-16*q {
			lo = q
			break // stalled: the quotient is as good as it gets
		}
		lo = q
	}
	for i := range x {
		x[i] = math.Max(x[i], 1e-300)
	}
	y := gram(x)
	for i := range x {
		hi = math.Max(hi, y[i]/x[i])
	}
	return math.Sqrt(lo), math.Sqrt(hi)
}

// jacobiNorm returns ‖b‖ as the square root of the largest eigenvalue of
// bᵀb, diagonalized by cyclic Jacobi rotations until the off-diagonal mass
// is below 1e-30 of the total.
func jacobiNorm(b *matrix.Dense) float64 {
	a := b.Gram()
	n := a.Rows()
	for sweep := 0; sweep < 100; sweep++ {
		var off, total float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				total += a.At(i, j) * a.At(i, j)
				if i != j {
					off += a.At(i, j) * a.At(i, j)
				}
			}
		}
		if off <= 1e-30*total {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if a.At(p, q) == 0 {
					continue
				}
				theta := (a.At(q, q) - a.At(p, p)) / (2 * a.At(p, q))
				tn := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(tn*tn+1)
				s := tn * c
				for k := 0; k < n; k++ { // A ← AJ, then A ← JᵀA
					akp, akq := a.At(k, p), a.At(k, q)
					a.Set(k, p, c*akp-s*akq)
					a.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := a.At(p, k), a.At(q, k)
					a.Set(p, k, c*apk-s*aqk)
					a.Set(q, k, s*apk+c*aqk)
				}
			}
		}
	}
	var top float64
	for i := 0; i < n; i++ {
		top = math.Max(top, a.At(i, i))
	}
	return math.Sqrt(top)
}
