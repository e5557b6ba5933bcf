package topology

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// schedCase pairs an exchange coloring with the generator whose edge set it
// must decompose exactly.
type schedCase struct {
	name string
	cls  ExchangeClasses
	gen  graph.ArcSource
}

func schedCases() []schedCase {
	return []schedCase{
		{"hypercube-D1", NewHypercubeClasses(1), NewHypercubeGen(1)},
		{"hypercube-D4", NewHypercubeClasses(4), NewHypercubeGen(4)},
		{"cycle-3", NewCycleClasses(3), NewCycleGen(3)},
		{"cycle-4", NewCycleClasses(4), NewCycleGen(4)},
		{"cycle-9", NewCycleClasses(9), NewCycleGen(9)},
		{"cycle-16", NewCycleClasses(16), NewCycleGen(16)},
		{"torus-3x3", NewTorusClasses(3, 3), NewTorusGen(3, 3)},
		{"torus-3x4", NewTorusClasses(3, 4), NewTorusGen(3, 4)},
		{"torus-6x4", NewTorusClasses(6, 4), NewTorusGen(6, 4)},
		{"torus-5x3", NewTorusClasses(5, 3), NewTorusGen(5, 3)},
		{"ccc-3", NewCCCClasses(3), NewCCCGen(3)},
		{"ccc-4", NewCCCClasses(4), NewCCCGen(4)},
		{"ccc-5", NewCCCClasses(5), NewCCCGen(5)},
		{"butterfly-2x1", NewButterflyClasses(2, 1), NewButterflyGen(2, 1)},
		{"butterfly-2x3", NewButterflyClasses(2, 3), NewButterflyGen(2, 3)},
		{"butterfly-3x2", NewButterflyClasses(3, 2), NewButterflyGen(3, 2)},
	}
}

// TestExchangeClassesDecomposeGenerators is the structural pin: every
// coloring must be a proper edge coloring of its generator's graph — each
// class a matching of real edges, every edge in exactly one class, Partner
// an involution.
func TestExchangeClassesDecomposeGenerators(t *testing.T) {
	for _, tc := range schedCases() {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.cls.N()
			if n != tc.gen.N() {
				t.Fatalf("N: classes %d, generator %d", n, tc.gen.N())
			}
			g := graph.MaterializeSource(tc.gen)
			seen := make(map[[2]int]int) // undirected edge → class+1
			for c := 0; c < tc.cls.Classes(); c++ {
				for v := 0; v < n; v++ {
					p := tc.cls.Partner(c, v)
					if p < 0 {
						continue
					}
					if p == v || p >= n {
						t.Fatalf("class %d: Partner(%d) = %d out of range", c, v, p)
					}
					if back := tc.cls.Partner(c, p); back != v {
						t.Fatalf("class %d: Partner(%d)=%d but Partner(%d)=%d, want involution", c, v, p, p, back)
					}
					if !g.HasArc(v, p) {
						t.Fatalf("class %d pairs non-adjacent %d-%d", c, v, p)
					}
					lo, hi := v, p
					if hi < lo {
						lo, hi = hi, lo
					}
					key := [2]int{lo, hi}
					if prev, dup := seen[key]; dup && prev != c+1 {
						t.Fatalf("edge %d-%d in classes %d and %d", lo, hi, prev-1, c)
					}
					seen[key] = c + 1
				}
			}
			if want := g.M() / 2; len(seen) != want {
				t.Fatalf("classes cover %d edges, graph has %d", len(seen), want)
			}
		})
	}
}

// TestPartnerChunkMatchesPartner pins the chunk fast path against the
// scalar map, across chunk boundaries.
func TestPartnerChunkMatchesPartner(t *testing.T) {
	for _, tc := range schedCases() {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.cls.N()
			out := make([]int32, n)
			for c := 0; c < tc.cls.Classes(); c++ {
				for lo := 0; lo < n; lo += 7 {
					hi := min(lo+7, n)
					tc.cls.PartnerChunk(c, lo, hi, out[:hi-lo])
					for v := lo; v < hi; v++ {
						if want := tc.cls.Partner(c, v); int(out[v-lo]) != want {
							t.Fatalf("class %d: PartnerChunk[%d] = %d, Partner = %d", c, v, out[v-lo], want)
						}
					}
				}
			}
		})
	}
}

// TestScheduleAdapters pins the three periodic round sources derived from
// one coloring: periods, sender structure (full-duplex senders are mutual;
// half-duplex rounds orient each class both ways exactly once) and
// SenderChunk against Sender.
func TestScheduleAdapters(t *testing.T) {
	for _, tc := range schedCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSchedule(tc.cls)
			n, k := s.N(), s.Classes()
			full, half, inter := s.FullDuplex(), s.HalfDuplex(), s.Interleaved()
			if full.Rounds() != k || half.Rounds() != 2*k || inter.Rounds() != 2*k {
				t.Fatalf("periods: full %d half %d interleaved %d, classes %d",
					full.Rounds(), half.Rounds(), inter.Rounds(), k)
			}
			for c := 0; c < k; c++ {
				for v := 0; v < n; v++ {
					p := tc.cls.Partner(c, v)
					if got := full.Sender(c, v); got != p {
						t.Fatalf("full round %d: Sender(%d) = %d, want %d", c, v, got, p)
					}
					// Across the two oriented rounds of class c, v hears
					// from p exactly once (and never when unmatched).
					fwd, bwd := half.Sender(c, v), half.Sender(k+c, v)
					ifwd, ibwd := inter.Sender(2*c, v), inter.Sender(2*c+1, v)
					if fwd != ifwd || bwd != ibwd {
						t.Fatalf("class %d: half (%d,%d) vs interleaved (%d,%d) orientations differ",
							c, fwd, bwd, ifwd, ibwd)
					}
					switch {
					case p < 0:
						if fwd != -1 || bwd != -1 {
							t.Fatalf("class %d: unmatched %d hears from (%d,%d)", c, v, fwd, bwd)
						}
					case p < v:
						if fwd != p || bwd != -1 {
							t.Fatalf("class %d: v=%d p=%d got forward %d backward %d", c, v, p, fwd, bwd)
						}
					default:
						if fwd != -1 || bwd != p {
							t.Fatalf("class %d: v=%d p=%d got forward %d backward %d", c, v, p, fwd, bwd)
						}
					}
				}
			}
			for _, rs := range []graph.RoundSource{full, half, inter} {
				checkSenderChunk(t, rs)
			}
		})
	}
}

func checkSenderChunk(t *testing.T, rs graph.RoundSource) {
	t.Helper()
	n := rs.N()
	out := make([]int32, n)
	for r := 0; r < rs.Rounds(); r++ {
		for lo := 0; lo < n; lo += 5 {
			hi := min(lo+5, n)
			rs.SenderChunk(r, lo, hi, out[:hi-lo])
			for v := lo; v < hi; v++ {
				if want := rs.Sender(r, v); int(out[v-lo]) != want {
					t.Fatalf("round %d: SenderChunk[%d] = %d, Sender = %d", r, v, out[v-lo], want)
				}
			}
		}
	}
}

// TestCycleTwoPhaseSchedule pins the directed two-phase cycle rule: in
// round r the arcs i → i+1 mod n with i ≡ r (mod 2) are active.
func TestCycleTwoPhaseSchedule(t *testing.T) {
	for _, n := range []int{4, 6, 10} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			c := NewCycleTwoPhase(n)
			if c.Rounds() != 2 {
				t.Fatalf("Rounds = %d, want 2", c.Rounds())
			}
			for r := 0; r < 2; r++ {
				for v := 0; v < n; v++ {
					u := (v - 1 + n) % n
					want := -1
					if u%2 == r {
						want = u
					}
					if got := c.Sender(r, v); got != want {
						t.Fatalf("round %d: Sender(%d) = %d, want %d", r, v, got, want)
					}
				}
			}
			checkSenderChunk(t, c)
		})
	}
}
