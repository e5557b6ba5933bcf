package systolic

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// greedyGoldenCase is one pinned greedy construction: the instance, the
// catalog protocol, and the schedule it produced.
type greedyGoldenCase struct {
	Kind        string `json:"kind"`
	Params      string `json:"params"`
	Protocol    string `json:"protocol"`
	Rounds      int    `json:"rounds"`
	Fingerprint string `json:"fingerprint"`
}

// greedyGoldenInstances are the two certify-cold sizes of every kind
// (n ≈ 12–64) plus instances with n > 64, whose knowledge sets span several
// 64-bit words.
var greedyGoldenInstances = []struct {
	kind   string
	params []Param
}{
	{"path", []Param{Nodes(16)}}, {"path", []Param{Nodes(32)}},
	{"cycle", []Param{Nodes(16)}}, {"cycle", []Param{Nodes(32)}},
	{"complete", []Param{Nodes(16)}}, {"complete", []Param{Nodes(32)}},
	{"hypercube", []Param{Dimension(4)}}, {"hypercube", []Param{Dimension(5)}},
	{"grid", []Param{Rows(4), Cols(4)}}, {"grid", []Param{Rows(4), Cols(8)}},
	{"torus", []Param{Rows(4), Cols(4)}}, {"torus", []Param{Rows(4), Cols(8)}},
	{"tree", []Param{Degree(2), Depth(3)}}, {"tree", []Param{Degree(2), Depth(4)}},
	{"shuffle-exchange", []Param{Dimension(4)}}, {"shuffle-exchange", []Param{Dimension(5)}},
	{"ccc", []Param{Dimension(3)}}, {"ccc", []Param{Dimension(4)}},
	{"butterfly", []Param{Degree(2), Diameter(2)}}, {"butterfly", []Param{Degree(2), Diameter(3)}},
	{"wbf", []Param{Degree(2), Diameter(3)}}, {"wbf", []Param{Degree(2), Diameter(4)}},
	{"wbf-digraph", []Param{Degree(2), Diameter(3)}}, {"wbf-digraph", []Param{Degree(2), Diameter(4)}},
	{"debruijn", []Param{Degree(2), Diameter(4)}}, {"debruijn", []Param{Degree(2), Diameter(5)}},
	{"debruijn-digraph", []Param{Degree(2), Diameter(4)}}, {"debruijn-digraph", []Param{Degree(2), Diameter(5)}},
	{"kautz", []Param{Degree(2), Diameter(4)}}, {"kautz", []Param{Degree(2), Diameter(5)}},
	{"kautz-digraph", []Param{Degree(2), Diameter(4)}}, {"kautz-digraph", []Param{Degree(2), Diameter(5)}},
	// n > 64.
	{"hypercube", []Param{Dimension(7)}},
	{"torus", []Param{Rows(10), Cols(10)}},
	{"debruijn", []Param{Degree(2), Diameter(7)}},
	{"debruijn-digraph", []Param{Degree(2), Diameter(7)}},
}

// TestGreedyProtocolsGolden pins the schedules of the greedy heuristics —
// round count and fingerprint of greedy-half, greedy-directed and
// greedy-full on every undirected instance, greedy-directed alone on the
// digraph kinds — against testdata/greedy.golden.json. Any change to the
// candidate order, the matching or the knowledge update shows up here.
// Regenerate with `go test ./systolic -run GreedyProtocolsGolden -update`.
func TestGreedyProtocolsGolden(t *testing.T) {
	var got []greedyGoldenCase
	for _, in := range greedyGoldenInstances {
		net, err := New(in.kind, in.params...)
		if err != nil {
			t.Fatal(err)
		}
		names := []string{"greedy-directed", "greedy-full", "greedy-half"}
		if !net.G.IsSymmetric() {
			names = names[:1]
		}
		for _, name := range names {
			p, err := NewProtocol(name, net, DefaultRoundBudget)
			if err != nil {
				t.Fatalf("%s %s %s: %v", in.kind, MakeParams(in.params...).Canonical(), name, err)
			}
			got = append(got, greedyGoldenCase{
				Kind: in.kind, Params: MakeParams(in.params...).Canonical(), Protocol: name,
				Rounds: p.Len(), Fingerprint: p.Fingerprint(),
			})
		}
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	golden := filepath.Join("testdata", "greedy.golden.json")
	if *update {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var want []greedyGoldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d greedy cases, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("greedy schedule drifted:\n got %+v\nwant %+v", got[i], want[i])
		}
	}
}
