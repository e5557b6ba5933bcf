package topology

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
)

// roundCase is one schedule round source under test.
type roundCase struct {
	name string
	rs   graph.RoundSource
}

// scheduleRounds returns the full-duplex, half-duplex and interleaved
// round sources of cls.
func scheduleRounds(name string, cls ExchangeClasses) []roundCase {
	s := NewSchedule(cls)
	return []roundCase{
		{name + "-full", s.FullDuplex()},
		{name + "-half", s.HalfDuplex()},
		{name + "-interleaved", s.Interleaved()},
	}
}

// receiveWordsCases covers every RoundSource: hypercubes below and above
// one word (D < 6 is a sub-word cube) and past one step chunk of 4096
// vertices (D = 13), cycles around the word size, tori
// whose n is not a multiple of 64 (rows shorter and longer than a word),
// CCC, butterflies and the directed two-phase cycle.
func receiveWordsCases() []roundCase {
	var cases []roundCase
	for _, D := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13} {
		cases = append(cases, scheduleRounds(fmt.Sprintf("hypercube-D%d", D), NewHypercubeClasses(D))...)
	}
	for _, n := range []int{3, 4, 63, 64, 65, 130} {
		cases = append(cases, scheduleRounds(fmt.Sprintf("cycle-%d", n), NewCycleClasses(n))...)
	}
	for _, ab := range [][2]int{{3, 3}, {3, 4}, {5, 13}, {7, 10}, {4, 33}, {3, 67}, {5, 70}} {
		cases = append(cases, scheduleRounds(fmt.Sprintf("torus-%dx%d", ab[0], ab[1]), NewTorusClasses(ab[0], ab[1]))...)
	}
	for _, D := range []int{3, 4, 5} {
		cases = append(cases, scheduleRounds(fmt.Sprintf("ccc-%d", D), NewCCCClasses(D))...)
	}
	for _, dD := range [][2]int{{2, 1}, {2, 3}, {3, 2}, {2, 5}} {
		cases = append(cases, scheduleRounds(fmt.Sprintf("butterfly-%dx%d", dD[0], dD[1]), NewButterflyClasses(dD[0], dD[1]))...)
	}
	for _, n := range []int{4, 10, 64, 66, 130} {
		cases = append(cases, roundCase{fmt.Sprintf("cycle2-%d", n), NewCycleTwoPhase(n)})
	}
	return cases
}

// randomInformed returns a random informed set for n vertices with random
// bits at and above n too, which ReceiveWords must ignore.
func randomInformed(rng *rand.Rand, n int) []uint64 {
	x := make([]uint64, (n+63)/64)
	// Densities from sparse to dense, so both set and clear senders occur.
	keep := rng.Uint64() | rng.Uint64()
	for i := range x {
		x[i] = rng.Uint64() & (rng.Uint64() | keep)
	}
	return x
}

// checkReceiveWords compares rs.ReceiveWords in round r against the
// scalar Sender oracle bit for bit, over the whole word range and over a
// random split of it, and checks the bits at or above n stay 0.
func checkReceiveWords(t *testing.T, rs graph.RoundSource, r int, informed []uint64, rng *rand.Rand) {
	t.Helper()
	n := rs.N()
	nw := len(informed)
	want := make([]uint64, nw)
	for v := 0; v < n; v++ {
		if s := rs.Sender(r, v); s >= 0 && informed[s/64]>>(s%64)&1 != 0 {
			want[v/64] |= 1 << (v % 64)
		}
	}
	got := make([]uint64, nw)
	for i := range got {
		got[i] = rng.Uint64() // ReceiveWords must overwrite every word
	}
	rs.ReceiveWords(r, 0, nw, informed, got)
	compareWords(t, r, 0, want, got, n)
	if nw < 2 {
		return
	}
	mid := 1 + rng.IntN(nw-1)
	part := make([]uint64, nw)
	rs.ReceiveWords(r, mid, nw, informed, part)
	compareWords(t, r, mid, want[mid:], part[:nw-mid], n)
	rs.ReceiveWords(r, 0, mid, informed, part[:mid])
	compareWords(t, r, 0, want[:mid], part[:mid], n)
}

func compareWords(t *testing.T, r, wlo int, want, got []uint64, n int) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			w := wlo + i
			t.Fatalf("round %d word %d: ReceiveWords %064b, Sender oracle %064b (n=%d)", r, w, got[i], want[i], n)
		}
	}
}

// TestReceiveWordsMatchesSender is the word-form differential: for every
// round source, mode and round, ReceiveWords over random informed sets
// equals the set the scalar Sender map informs, bit for bit.
func TestReceiveWordsMatchesSender(t *testing.T) {
	for _, tc := range receiveWordsCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(tc.rs.N()), uint64(tc.rs.Rounds())))
			for r := 0; r < tc.rs.Rounds(); r++ {
				for trial := 0; trial < 8; trial++ {
					checkReceiveWords(t, tc.rs, r, randomInformed(rng, tc.rs.N()), rng)
				}
			}
		})
	}
}

// FuzzReceiveWords drives the word-form differential over arbitrary
// (kind, size, round, informed seed) tuples.
func FuzzReceiveWords(f *testing.F) {
	f.Add(uint8(0), uint16(12), uint16(5), uint64(1))
	f.Add(uint8(4), uint16(130), uint16(1), uint64(2))
	f.Add(uint8(8), uint16(77), uint16(3), uint64(3))
	f.Add(uint8(17), uint16(4), uint16(7), uint64(4))
	f.Fuzz(func(t *testing.T, kind uint8, size, round uint16, seed uint64) {
		rs := fuzzRoundSource(kind, int(size))
		rng := rand.New(rand.NewPCG(seed, uint64(size)))
		checkReceiveWords(t, rs, int(round)%rs.Rounds(), randomInformed(rng, rs.N()), rng)
	})
}

// fuzzRoundSource maps a fuzz (kind, size) pair to a small round source:
// kind picks the family and, for colorings, the mode.
func fuzzRoundSource(kind uint8, size int) graph.RoundSource {
	var cls ExchangeClasses
	switch kind / 3 % 6 {
	case 0:
		cls = NewHypercubeClasses(1 + size%10)
	case 1:
		cls = NewCycleClasses(3 + size%300)
	case 2:
		cls = NewTorusClasses(3+size%7, 3+size/7%70)
	case 3:
		cls = NewCCCClasses(3 + size%3)
	case 4:
		cls = NewButterflyClasses(2+size%2, 1+size/2%3)
	default:
		return NewCycleTwoPhase(4 + 2*(size%100))
	}
	s := NewSchedule(cls)
	switch kind % 3 {
	case 0:
		return s.FullDuplex()
	case 1:
		return s.HalfDuplex()
	}
	return s.Interleaved()
}

// TestExchangeWordsAllocs pins the zero-allocation contract of the word
// forms: the hypercube's word arithmetic and every packWords adapter.
func TestExchangeWordsAllocs(t *testing.T) {
	for _, tc := range []roundCase{
		{"hypercube", NewSchedule(NewHypercubeClasses(10)).HalfDuplex()},
		{"cycle", NewSchedule(NewCycleClasses(131)).FullDuplex()},
		{"torus", NewSchedule(NewTorusClasses(5, 70)).Interleaved()},
		{"ccc", NewSchedule(NewCCCClasses(5)).FullDuplex()},
		{"butterfly", NewSchedule(NewButterflyClasses(2, 5)).HalfDuplex()},
		{"cycle2", NewCycleTwoPhase(130)},
	} {
		n := tc.rs.N()
		informed := make([]uint64, (n+63)/64)
		out := make([]uint64, len(informed))
		r := 0
		if avg := testing.AllocsPerRun(50, func() {
			tc.rs.ReceiveWords(r%tc.rs.Rounds(), 0, len(out), informed, out)
			r++
		}); avg != 0 {
			t.Errorf("%s: ReceiveWords allocates %.1f per call", tc.name, avg)
		}
	}
}
