package systolic

import (
	"testing"

	"repro/internal/gossip"
	"repro/internal/graph"
)

// naiveGossip is the reference interpreter compiled sessions are held to:
// each processor's known items as a plain set, every round applied straight
// from its arcs. It shares no code with the gossip engine.
type naiveGossip struct {
	know []map[int]bool
}

func newNaiveGossip(n int) *naiveGossip {
	g := &naiveGossip{know: make([]map[int]bool, n)}
	for v := range g.know {
		g.know[v] = map[int]bool{v: true}
	}
	return g
}

// step applies one round: for each arc (x, y), y learns everything x knew
// at the beginning of the round.
func (g *naiveGossip) step(round []graph.Arc) {
	sent := make([][]int, len(round))
	for i, a := range round {
		for item := range g.know[a.From] {
			sent[i] = append(sent[i], item)
		}
	}
	for i, a := range round {
		for _, item := range sent[i] {
			g.know[a.To][item] = true
		}
	}
}

// complete reports whether every processor knows every item.
func (g *naiveGossip) complete() bool {
	for _, items := range g.know {
		if len(items) != len(g.know) {
			return false
		}
	}
	return true
}

// mustMatch fails t unless st holds exactly the reference's knowledge.
func (g *naiveGossip) mustMatch(t *testing.T, st *gossip.State, round int) {
	t.Helper()
	for v, items := range g.know {
		for i := range g.know {
			if st.Knows(v, i) != items[i] {
				t.Fatalf("round %d: processor %d knows item %d = %v, reference %v", round, v, i, st.Knows(v, i), items[i])
			}
		}
	}
}
