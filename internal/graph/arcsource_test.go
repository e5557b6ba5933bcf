package graph

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// sampleDigraph builds a small asymmetric digraph exercising fan-in,
// fan-out, and an isolated vertex.
func sampleDigraph() *Digraph {
	g := New(6)
	g.AddArc(0, 1)
	g.AddArc(0, 2)
	g.AddArc(0, 3)
	g.AddArc(1, 2)
	g.AddArc(2, 0)
	g.AddArc(3, 4)
	g.AddArc(4, 0)
	// vertex 5 is isolated
	return g
}

func TestDigraphSourceMirrorsAdjacency(t *testing.T) {
	g := sampleDigraph()
	src := NewDigraphSource(g)
	if src.N() != g.N() {
		t.Fatalf("N: got %d want %d", src.N(), g.N())
	}
	if src.DegBound() != 3 {
		t.Fatalf("DegBound: got %d want 3", src.DegBound())
	}
	buf := make([]int32, src.DegBound())
	for v := 0; v < g.N(); v++ {
		k := src.OutArcs(v, buf)
		got := make([]int, k)
		for i := 0; i < k; i++ {
			got[i] = int(buf[i])
		}
		sort.Ints(got)
		want := append([]int(nil), g.Out(v)...)
		sort.Ints(want)
		if !equalInts(got, want) {
			t.Errorf("OutArcs(%d): got %v want %v", v, got, want)
		}
		k = src.InArcs(v, buf)
		got = got[:0]
		for i := 0; i < k; i++ {
			got = append(got, int(buf[i]))
		}
		sort.Ints(got)
		want = append(want[:0], g.In(v)...)
		sort.Ints(want)
		if !equalInts(got, want) {
			t.Errorf("InArcs(%d): got %v want %v", v, got, want)
		}
	}
}

func TestMaterializeSourceRoundTrip(t *testing.T) {
	g := sampleDigraph()
	back := MaterializeSource(NewDigraphSource(g))
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip size: got n=%d m=%d want n=%d m=%d",
			back.N(), back.M(), g.N(), g.M())
	}
	for _, a := range g.Arcs() {
		if !back.HasArc(a.From, a.To) {
			t.Errorf("round trip lost arc %v", a)
		}
	}
}

// listSource is an ArcSource stub that emits fixed out-lists, in the
// given order, faults included.
type listSource [][]int32

func (s listSource) N() int { return len(s) }
func (s listSource) DegBound() int {
	deg := 0
	for _, adj := range s {
		deg = max(deg, len(adj))
	}
	return deg
}
func (s listSource) OutArcs(v int, buf []int32) int { return copy(buf, s[v]) }
func (s listSource) InArcs(int, []int32) int        { return 0 }

// recovered runs f and returns its panic message, or "" if it returns.
func recovered(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestMaterializeSourceChecks: a source that emits an out-of-range id, a
// self-loop or a duplicate panics with the message AddArc gives the same
// arc, however the faulty id is ordered among valid ones.
func TestMaterializeSourceChecks(t *testing.T) {
	cases := []struct {
		name   string
		src    listSource
		addArc func(g *Digraph) // the same fault through AddArc
	}{
		{"out of range", listSource{{1}, {3, 0}, {0}}, func(g *Digraph) { g.AddArc(1, 3) }},
		{"negative", listSource{{1}, {0, -1}, {0}}, func(g *Digraph) { g.AddArc(1, -1) }},
		{"self-loop", listSource{{1}, {2, 1, 0}, {0}}, func(g *Digraph) { g.AddArc(1, 1) }},
		{"duplicate", listSource{{1}, {2, 0, 2}, {0}}, func(g *Digraph) { g.AddArc(1, 2); g.AddArc(1, 2) }},
	}
	for _, c := range cases {
		want := recovered(func() { c.addArc(New(c.src.N())) })
		got := recovered(func() { MaterializeSource(c.src) })
		if want == "" || got != want {
			t.Errorf("%s: MaterializeSource panics %q, AddArc %q", c.name, got, want)
		}
	}
}

// TestMaterializeSourceIsolatesLists: every adjacency list of a drained
// digraph is capped at its length, so adding any missing arc afterwards
// changes only its tail's out-list and its head's in-list.
func TestMaterializeSourceIsolatesLists(t *testing.T) {
	src := NewDigraphSource(sampleDigraph())
	n := src.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			g := MaterializeSource(src)
			if u == v || g.HasArc(u, v) {
				continue
			}
			ref := MaterializeSource(src)
			g.AddArc(u, v)
			for w := 0; w < n; w++ {
				wantOut, wantIn := ref.Out(w), ref.In(w)
				if w == u {
					wantOut = slices.Insert(slices.Clone(wantOut), sort.SearchInts(wantOut, v), v)
				}
				if w == v {
					wantIn = slices.Insert(slices.Clone(wantIn), sort.SearchInts(wantIn, u), u)
				}
				if !slices.Equal(g.Out(w), wantOut) || !slices.Equal(g.In(w), wantIn) {
					t.Fatalf("AddArc(%d,%d): vertex %d out %v in %v, want out %v in %v",
						u, v, w, g.Out(w), g.In(w), wantOut, wantIn)
				}
			}
		}
	}
}

// inArcsOnly hides a source's OrGatherer fast path.
type inArcsOnly struct{ ArcSource }

func TestNewFloodGenScratch(t *testing.T) {
	g := sampleDigraph()
	src := inArcsOnly{NewDigraphSource(g)}
	fg := NewFloodGen(src)
	if fg.Src() != ArcSource(src) {
		t.Fatal("Src: wrong generator")
	}
	if fg.N() != g.N() {
		t.Fatalf("N: got %d want %d", fg.N(), g.N())
	}
	if fg.Gatherer() != nil {
		t.Fatal("a source without OrInChunk must not advertise the fast path")
	}
	if len(fg.ArcBuf()) != src.DegBound() {
		t.Fatalf("ArcBuf: len %d want %d", len(fg.ArcBuf()), src.DegBound())
	}
}

func TestNewFloodGenGathererPath(t *testing.T) {
	src := NewDigraphSource(sampleDigraph())
	fg := NewFloodGen(src)
	if fg.Gatherer() == nil {
		t.Fatal("DigraphSource's OrGatherer fast path not detected")
	}
	if fg.ArcBuf() != nil {
		t.Fatal("the fast path needs no per-vertex arc scratch")
	}
	table := []uint64{1, 2, 4, 8, 16, 32}
	out := make([]uint64, 6)
	fg.Gatherer().OrInChunk(0, 6, table, out)
	// in(0)={2,4}, in(1)={0}, in(2)={0,1}, in(3)={0}, in(4)={3}, in(5)={}
	want := []uint64{4 | 16, 1, 1 | 2, 1, 8, 0}
	for v, w := range want {
		if out[v] != w {
			t.Errorf("OrInChunk vertex %d: got %d want %d", v, out[v], w)
		}
	}
	// An interior chunk writes only its own destinations.
	out = []uint64{99, 99}
	fg.Gatherer().OrInChunk(2, 4, table, out[:2])
	if out[0] != 1|2 || out[1] != 1 {
		t.Errorf("OrInChunk [2, 4): got %v want [3 1]", out)
	}
}

// degSource is an ArcSource stub with a given degree bound.
type degSource struct {
	ArcSource
	deg int
}

func (s degSource) DegBound() int { return s.deg }

// cacheLines returns the first and last 64-byte line buf occupies.
func cacheLines(buf []int32) (first, last uintptr) {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p / 64, (p + uintptr(4*len(buf)) - 1) / 64
}

// TestShardFloodGenLines: the views ShardFloodGen cuts from one
// ArcScratch block hold DegBound ids each, with no spare capacity, and no
// two of them touch a common cache line, whatever the degree and however
// the block is aligned (the test shifts it by 0–15 ids); the OrGatherer
// fast path keeps both its gatherer and its scratch.
func TestShardFloodGenLines(t *testing.T) {
	const k = 5
	for deg := 1; deg <= 40; deg++ {
		src := degSource{NewDigraphSource(sampleDigraph()), deg}
		block := ArcScratch(src, k+1)
		for shift := range arcLine {
			scratch := block[shift:]
			var lines [k][2]uintptr
			for i := range k {
				fg := ShardFloodGen(src, scratch, i)
				if buf := fg.ArcBuf(); len(buf) != deg || cap(buf) != deg {
					t.Fatalf("deg %d view %d: scratch len %d cap %d, want %d", deg, i, len(buf), cap(buf), deg)
				}
				lines[i][0], lines[i][1] = cacheLines(fg.ArcBuf())
				for j := range i {
					if lines[i][0] <= lines[j][1] && lines[j][0] <= lines[i][1] {
						t.Fatalf("deg %d shift %d: views %d and %d share a cache line", deg, shift, j, i)
					}
				}
			}
		}
	}
	src := NewDigraphSource(sampleDigraph())
	fg := ShardFloodGen(src, ArcScratch(src, 1), 0)
	if fg.Gatherer() == nil || len(fg.ArcBuf()) != src.DegBound() {
		t.Fatalf("fast-path view: gatherer %v, scratch %d ids", fg.Gatherer(), len(fg.ArcBuf()))
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
