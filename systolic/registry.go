package systolic

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/bounds"
	"repro/internal/graph"
	"repro/internal/topology"
)

// Topology is a registered network family: it knows its registry kind, the
// named parameters it requires, and how to build a concrete Network from
// them. Builders must validate their parameters and return ErrBadParam-
// wrapped errors instead of panicking.
type Topology interface {
	// Kind is the registry key, e.g. "debruijn".
	Kind() string
	// ParamNames lists the required named parameters in display order.
	ParamNames() []string
	// Build instantiates the family from named parameters.
	Build(p Params) (*Network, error)
}

// Builder is the registration payload for Register: the required parameter
// names plus the build function. It is the functional counterpart of the
// Topology interface (Register adapts it).
type Builder struct {
	// Params lists the required parameter names in display order.
	Params []string
	// Build instantiates the topology from named parameters.
	Build func(p Params) (*Network, error)
}

type registered struct {
	kind string
	b    Builder
}

func (r registered) Kind() string         { return r.kind }
func (r registered) ParamNames() []string { return append([]string(nil), r.b.Params...) }
func (r registered) Build(p Params) (*Network, error) {
	return r.b.Build(p)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]registered{}
)

// Register adds a topology builder under a kind name (case-insensitive).
// It panics on an empty name, a nil build function, or a duplicate
// registration — registration happens at init time, and a collision is a
// programming error that must not be silently resolved by load order.
//
//gossip:allowpanic init-time registration collisions are programming errors that must not be resolved by load order
func Register(name string, b Builder) {
	kind := strings.ToLower(strings.TrimSpace(name))
	if kind == "" {
		panic("systolic: Register with empty topology name")
	}
	if b.Build == nil {
		panic(fmt.Sprintf("systolic: Register(%q) with nil build function", name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("systolic: Register(%q) called twice", kind))
	}
	registry[kind] = registered{kind: kind, b: b}
}

// unregister removes a kind from the registry. It exists for tests that
// exercise Register itself: the registry is global, and a test-registered
// kind left behind would leak into every Kinds()-driven differential
// (go test -shuffle=on catches exactly that).
func unregister(name string) {
	registryMu.Lock()
	defer registryMu.Unlock()
	delete(registry, strings.ToLower(strings.TrimSpace(name)))
}

// Lookup returns the registered topology for a kind, or false.
func Lookup(kind string) (Topology, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	t, ok := registry[strings.ToLower(kind)]
	return t, ok
}

// Kinds lists the registered topology kinds in sorted order.
func Kinds() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	ks := make([]string, 0, len(registry))
	for k := range registry {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// New builds a named network from named parameters:
//
//	net, err := systolic.New("debruijn", systolic.Degree(2), systolic.Diameter(5))
//
// An unknown kind yields ErrUnknownTopology (the message lists the accepted
// kinds); a missing or out-of-range parameter yields ErrBadParam.
func New(kind string, params ...Param) (*Network, error) {
	t, ok := Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("%w %q (accepted: %s)", ErrUnknownTopology, kind, strings.Join(Kinds(), ", "))
	}
	return t.Build(MakeParams(params...))
}

// The built-in catalog: every family the reproduction studies, with the
// explicit parameter validation that replaced the old panic-recover
// boundary.
func init() {
	Register("path", Builder{Params: []string{ParamNodes}, Build: func(p Params) (*Network, error) {
		n, err := p.atLeast("path", ParamNodes, 1)
		if err != nil {
			return nil, err
		}
		if err := checkSize("path", 1, 0, n); err != nil {
			return nil, err
		}
		return Plain("path", topology.Path(n)), nil
	}})
	Register("cycle", Builder{Params: []string{ParamNodes}, Build: func(p Params) (*Network, error) {
		n, err := p.atLeast("cycle", ParamNodes, 3)
		if err != nil {
			return nil, err
		}
		if err := checkImplicitSize("cycle", 1, 0, n); err != nil {
			return nil, err
		}
		net := PlainImplicit("cycle", topology.NewCycleGen(n), 1)
		return generated(net, topology.NewSchedule(topology.NewCycleClasses(n))), nil
	}})
	Register("complete", Builder{Params: []string{ParamNodes}, Build: func(p Params) (*Network, error) {
		n, err := p.atLeast("complete", ParamNodes, 1)
		if err != nil {
			return nil, err
		}
		// K_n materializes ~n² arcs and has no generator form worth
		// streaming (every round informs everyone anyway), so the cap is
		// much tighter than the vertex-count ceiling: n=8192 would already
		// be a ~67M-arc, gigabyte-scale build.
		if n > maxCompleteVertices {
			return nil, fmt.Errorf("%w: complete instance too large (> %d vertices; K_n materializes n² arcs)", ErrBadParam, maxCompleteVertices)
		}
		return Plain("complete", topology.Complete(n)), nil
	}})
	Register("hypercube", Builder{Params: []string{ParamDimension}, Build: func(p Params) (*Network, error) {
		D, err := p.atLeast("hypercube", ParamDimension, 1)
		if err != nil {
			return nil, err
		}
		if err := checkImplicitSize("hypercube", 2, D, 1); err != nil {
			return nil, err
		}
		net := PlainImplicit("hypercube", topology.NewHypercubeGen(D), max(D-1, 1))
		return generated(net, topology.NewSchedule(topology.NewHypercubeClasses(D))), nil
	}})
	Register("grid", Builder{Params: []string{ParamRows, ParamCols}, Build: func(p Params) (*Network, error) {
		a, err := p.atLeast("grid", ParamRows, 1)
		if err != nil {
			return nil, err
		}
		b, err := p.atLeast("grid", ParamCols, 1)
		if err != nil {
			return nil, err
		}
		if err := checkSize("grid", b, 1, a); err != nil {
			return nil, err
		}
		return Plain("grid", topology.Grid(a, b)), nil
	}})
	Register("torus", Builder{Params: []string{ParamRows, ParamCols}, Build: func(p Params) (*Network, error) {
		a, err := p.atLeast("torus", ParamRows, 3)
		if err != nil {
			return nil, err
		}
		b, err := p.atLeast("torus", ParamCols, 3)
		if err != nil {
			return nil, err
		}
		if err := checkImplicitSize("torus", b, 1, a); err != nil {
			return nil, err
		}
		net := PlainImplicit("torus", topology.NewTorusGen(a, b), 3)
		return generated(net, topology.NewSchedule(topology.NewTorusClasses(a, b))), nil
	}})
	Register("tree", Builder{Params: []string{ParamDegree, ParamDepth}, Build: func(p Params) (*Network, error) {
		d, err := p.atLeast("tree", ParamDegree, 1)
		if err != nil {
			return nil, err
		}
		depth, err := p.atLeast("tree", ParamDepth, 0)
		if err != nil {
			return nil, err
		}
		if err := checkSize("tree", d, depth, 2); err != nil {
			return nil, err
		}
		return Plain("tree", topology.CompleteKAryTree(d, depth)), nil
	}})
	Register("shuffle-exchange", Builder{Params: []string{ParamDimension}, Build: func(p Params) (*Network, error) {
		D, err := p.atLeast("shuffle-exchange", ParamDimension, 2)
		if err != nil {
			return nil, err
		}
		if err := checkSize("shuffle-exchange", 2, D, 1); err != nil {
			return nil, err
		}
		return Plain("shuffle-exchange", topology.ShuffleExchange(D)), nil
	}})
	Register("ccc", Builder{Params: []string{ParamDimension}, Build: func(p Params) (*Network, error) {
		D, err := p.atLeast("ccc", ParamDimension, 3)
		if err != nil {
			return nil, err
		}
		if err := checkImplicitSize("ccc", 2, D, D); err != nil {
			return nil, err
		}
		net := PlainImplicit("ccc", topology.NewCCCGen(D), 2)
		return generated(net, topology.NewSchedule(topology.NewCCCClasses(D))), nil
	}})
	Register("butterfly", Builder{Params: []string{ParamDegree, ParamDiameter}, Build: func(p Params) (*Network, error) {
		d, D, err := degreeDiameter(p, "butterfly", 2, 1)
		if err != nil {
			return nil, err
		}
		if err := checkImplicitSize("butterfly", d, D, D+1); err != nil {
			return nil, err
		}
		net := ClassifiedImplicit(fmt.Sprintf("BF(%d,%d)", d, D), topology.NewButterflyGen(d, D), bounds.BF, d)
		return generated(net, topology.NewSchedule(topology.NewButterflyClasses(d, D))), nil
	}})
	Register("wbf", Builder{Params: []string{ParamDegree, ParamDiameter}, Build: func(p Params) (*Network, error) {
		d, D, err := degreeDiameter(p, "wbf", 2, 2)
		if err != nil {
			return nil, err
		}
		if err := checkSize("wbf", d, D, D); err != nil {
			return nil, err
		}
		w := topology.NewWrappedButterfly(d, D)
		return Classified(fmt.Sprintf("WBF(%d,%d)", d, D), w.G, bounds.WBF, d), nil
	}})
	Register("wbf-digraph", Builder{Params: []string{ParamDegree, ParamDiameter}, Build: func(p Params) (*Network, error) {
		d, D, err := degreeDiameter(p, "wbf-digraph", 2, 2)
		if err != nil {
			return nil, err
		}
		if err := checkSize("wbf-digraph", d, D, D); err != nil {
			return nil, err
		}
		w := topology.NewWrappedButterflyDigraph(d, D)
		return Classified(fmt.Sprintf("WBF->(%d,%d)", d, D), w.G, bounds.WBFDirected, d), nil
	}})
	Register("debruijn", Builder{Params: []string{ParamDegree, ParamDiameter}, Build: func(p Params) (*Network, error) {
		d, D, err := degreeDiameter(p, "debruijn", 2, 2)
		if err != nil {
			return nil, err
		}
		if err := checkImplicitSize("debruijn", d, D, 1); err != nil {
			return nil, err
		}
		net := ClassifiedImplicit(fmt.Sprintf("DB(%d,%d)", d, D), topology.NewDeBruijnGen(d, D, false), bounds.DB, d)
		return generated(net, nil), nil
	}})
	Register("debruijn-digraph", Builder{Params: []string{ParamDegree, ParamDiameter}, Build: func(p Params) (*Network, error) {
		d, D, err := degreeDiameter(p, "debruijn-digraph", 2, 2)
		if err != nil {
			return nil, err
		}
		if err := checkImplicitSize("debruijn-digraph", d, D, 1); err != nil {
			return nil, err
		}
		net := ClassifiedImplicit(fmt.Sprintf("DB->(%d,%d)", d, D), topology.NewDeBruijnGen(d, D, true), bounds.DB, d)
		return generated(net, nil), nil
	}})
	Register("kautz", Builder{Params: []string{ParamDegree, ParamDiameter}, Build: func(p Params) (*Network, error) {
		d, D, err := degreeDiameter(p, "kautz", 2, 2)
		if err != nil {
			return nil, err
		}
		if err := checkImplicitSize("kautz", d, D, d+1); err != nil {
			return nil, err
		}
		net := ClassifiedImplicit(fmt.Sprintf("K(%d,%d)", d, D), topology.NewKautzGen(d, D, false), bounds.Kautz, d)
		return generated(net, nil), nil
	}})
	Register("kautz-digraph", Builder{Params: []string{ParamDegree, ParamDiameter}, Build: func(p Params) (*Network, error) {
		d, D, err := degreeDiameter(p, "kautz-digraph", 2, 2)
		if err != nil {
			return nil, err
		}
		if err := checkImplicitSize("kautz-digraph", d, D, d+1); err != nil {
			return nil, err
		}
		net := ClassifiedImplicit(fmt.Sprintf("K->(%d,%d)", d, D), topology.NewKautzGen(d, D, true), bounds.Kautz, d)
		return generated(net, nil), nil
	}})
}

// generated finishes a generator-eligible kind from its implicit network:
// it attaches the exchange-class schedule (nil for kinds without one) and,
// at or below materializeThreshold, the generator drained into G.
func generated(net *Network, sched *topology.Schedule) *Network {
	net.Sched = sched
	if net.Gen.N() <= materializeThreshold {
		net.G = graph.MaterializeSource(net.Gen)
	}
	return net
}

func degreeDiameter(p Params, kind string, minD, minDiam int) (d, D int, err error) {
	if d, err = p.atLeast(kind, ParamDegree, minD); err != nil {
		return 0, 0, err
	}
	if D, err = p.atLeast(kind, ParamDiameter, minDiam); err != nil {
		return 0, 0, err
	}
	return d, D, nil
}
