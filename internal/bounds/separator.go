package bounds

import (
	"fmt"
	"math"
)

// Separator carries the ⟨α,ℓ⟩ parameters of Definition 3.5: a family of
// digraphs has an ⟨α,ℓ⟩-separator when every member contains vertex sets
// V₁, V₂ at distance ℓ·log₂(n) − o(log n) with
// min(|V₁|,|V₂|) ≥ 2^(α·ℓ·log₂(n) − o(log n)).
type Separator struct {
	Alpha, L float64
}

// Valid reports whether the parameters are admissible (α, ℓ > 0 and
// α·ℓ ≤ 1, which Definition 3.5 forces since a set of 2^(αℓ·log n) vertices
// must fit in the graph).
func (sep Separator) Valid() bool {
	return sep.Alpha > 0 && sep.L > 0 && sep.Alpha*sep.L <= 1+1e-12
}

// SeparatorBound evaluates the Theorem 5.1 coefficient
//
//	e(s) = max_{0<λ<1, w(λ)≤1} ℓ·(α − log₂ w(λ)) / log₂(1/λ)
//
// for an arbitrary norm-bound function w (strictly increasing on (0,1)).
// It returns the maximizing λ* as well. The maximum is located with a scan
// of 4000 evenly spaced points λ = root·i/4000 over (0, root], root the
// unit root of w, followed by golden-section refinement around the best
// one; the objective is smooth and unimodal for every w used in the paper,
// and the scan guards against mistaking a local plateau for the optimum.
func SeparatorBound(sep Separator, w func(float64) float64) (e, lambdaStar float64) {
	return SeparatorBoundWithGrid(sep, w, 4000)
}

// SeparatorBoundWithGrid is SeparatorBound with an explicit scan resolution;
// it exists so the ablation benchmarks can quantify the accuracy/cost
// trade-off of the grid size (the default 4000 is chosen so that every
// 4-decimal table value is stable).
//
//gossip:allowpanic domain guard: closed-form bounds run on validated parameters; a violation is a programming error
func SeparatorBoundWithGrid(sep Separator, w func(float64) float64, gridN int) (e, lambdaStar float64) {
	if !sep.Valid() {
		panic(fmt.Sprintf("bounds: invalid separator α=%g ℓ=%g", sep.Alpha, sep.L))
	}
	if gridN < 2 {
		panic(fmt.Sprintf("bounds: grid too small: %d", gridN))
	}
	root := SolveUnitRoot(w) // upper end of the feasible region
	f := func(l float64) float64 {
		return sep.L * (sep.Alpha - math.Log2(w(l))) / math.Log2(1/l)
	}
	bestL, bestV := root, f(root)
	for i := 1; i <= gridN; i++ {
		l := root * float64(i) / float64(gridN)
		if l <= 0 || l >= 1 {
			continue
		}
		if v := f(l); v > bestV {
			bestV, bestL = v, l
		}
	}
	// Golden-section refinement around the best grid point.
	lo := math.Max(bestL-2*root/float64(gridN), root*1e-9)
	hi := math.Min(bestL+2*root/float64(gridN), root)
	phi := (math.Sqrt(5) - 1) / 2
	a, b := lo, hi
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := f(x1), f(x2)
	for i := 0; i < 200 && b-a > 1e-15; i++ {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = f(x2)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = f(x1)
		}
	}
	lambdaStar = (a + b) / 2
	if v := f(lambdaStar); v > bestV {
		bestV = v
	}
	return bestV, lambdaStar
}

// SeparatorHalfDuplex returns the Theorem 5.1 coefficient for s-systolic
// protocols in the directed/half-duplex cases: w(λ) = λ·√p⌈s/2⌉·√p⌊s/2⌋.
func SeparatorHalfDuplex(sep Separator, s int) (e, lambdaStar float64) {
	return SeparatorBound(sep, func(l float64) float64 { return WHalfDuplex(s, l) })
}

// SeparatorHalfDuplexInfinity returns the non-systolic (s→∞) coefficient of
// Corollary 5.3: w(λ) = λ/(1−λ²).
func SeparatorHalfDuplexInfinity(sep Separator) (e, lambdaStar float64) {
	return SeparatorBound(sep, WHalfDuplexInfinity)
}

// SeparatorFullDuplex returns the Section 6 full-duplex coefficient:
// w(λ) = λ + λ² + … + λ^(s−1).
func SeparatorFullDuplex(sep Separator, s int) (e, lambdaStar float64) {
	return SeparatorBound(sep, func(l float64) float64 { return WFullDuplex(s, l) })
}

// SeparatorFullDuplexInfinity returns the non-systolic full-duplex
// coefficient: w(λ) = λ/(1−λ).
func SeparatorFullDuplexInfinity(sep Separator) (e, lambdaStar float64) {
	return SeparatorBound(sep, WFullDuplexInfinity)
}

// BestHalfDuplex returns the better of the general bound (Cor. 4.4) and the
// separator bound (Thm. 5.1) for an s-systolic half-duplex/directed protocol
// on a network with the given separator — the value a Fig. 5 table cell
// reports ("entries with ∗ coincide with those in Fig. 4").
func BestHalfDuplex(sep Separator, s int) float64 {
	gen, _ := GeneralHalfDuplex(s)
	spec, _ := SeparatorHalfDuplex(sep, s)
	return math.Max(gen, spec)
}

// BestFullDuplex is the full-duplex analogue of BestHalfDuplex (Fig. 8).
func BestFullDuplex(sep Separator, s int) float64 {
	gen, _ := GeneralFullDuplex(s)
	spec, _ := SeparatorFullDuplex(sep, s)
	return math.Max(gen, spec)
}
