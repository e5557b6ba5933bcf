package graph

import "testing"

// TestDiameterMemo pins the Diameter memo: repeated calls return the cached
// value, and growing the graph invalidates it.
func TestDiameterMemo(t *testing.T) {
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("path diameter = %d, want 4", d)
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("memoized diameter = %d, want 4", d)
	}
	g.AddEdge(0, 4) // close the cycle: diameter drops to 2
	if d := g.Diameter(); d != 2 {
		t.Fatalf("diameter after AddEdge = %d, want 2 (stale memo?)", d)
	}
}

// TestDiameterMemoConcurrent exercises the memo from many goroutines under
// the race detector.
func TestDiameterMemoConcurrent(t *testing.T) {
	g := New(64)
	for i := 0; i < 64; i++ {
		g.AddEdge(i, (i+1)%64)
	}
	want := g.Diameter()
	done := make(chan int, 8)
	for w := 0; w < 8; w++ {
		go func() { done <- g.Diameter() }()
	}
	for w := 0; w < 8; w++ {
		if d := <-done; d != want {
			t.Fatalf("concurrent diameter = %d, want %d", d, want)
		}
	}
}
