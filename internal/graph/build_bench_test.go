package graph_test

import (
	"testing"

	"repro/systolic"
)

// BenchmarkTopologyBuild times building the largest materialized networks
// through systolic.New ("new") against inserting the same arc list into the
// map oracle ("oracle") in the same run. The new/oracle ratio is the
// machine-independent figure: the oracle is the arc-hash-set digraph this
// package used to be, and "new" also pays the registry's generator and
// symmetry work on top of the digraph build.
func BenchmarkTopologyBuild(b *testing.B) {
	cases := []struct {
		name   string
		kind   string
		params []systolic.Param
	}{
		{"hypercube-d17", "hypercube", []systolic.Param{systolic.Dimension(17)}},
		{"complete-n2048", "complete", []systolic.Param{systolic.Nodes(2048)}},
		{"debruijn-2-19", "debruijn", []systolic.Param{systolic.Degree(2), systolic.Diameter(19)}},
	}
	for _, c := range cases {
		net, err := systolic.New(c.kind, c.params...)
		if err != nil {
			b.Fatal(err)
		}
		n, arcs := net.N(), net.G.Arcs()
		net = nil // keep only the arc list resident while the arms run
		perArc := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(arcs)), "ns/arc")
		}
		b.Run(c.name+"/new", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := systolic.New(c.kind, c.params...); err != nil {
					b.Fatal(err)
				}
			}
			perArc(b)
		})
		b.Run(c.name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				o := newMapDigraph(n)
				for _, a := range arcs {
					o.AddArc(a.From, a.To)
				}
			}
			perArc(b)
		})
	}
}
