package systolic

import (
	"fmt"
	"sort"
	"strings"
)

// Named topology parameters. Each registered Topology declares, via
// ParamNames, which of these it requires; New rejects instantiations with a
// missing parameter.
const (
	// ParamNodes is the vertex count n (path, cycle, complete).
	ParamNodes = "nodes"
	// ParamDegree is the degree parameter d of the paper families and the
	// arity of trees.
	ParamDegree = "degree"
	// ParamDiameter is the diameter parameter D of the paper families
	// (BF, WBF, DB, K).
	ParamDiameter = "diameter"
	// ParamDimension is the dimension D of hypercubes, shuffle-exchange
	// networks and cube-connected cycles.
	ParamDimension = "dimension"
	// ParamRows and ParamCols are the grid/torus side lengths.
	ParamRows = "rows"
	ParamCols = "cols"
	// ParamDepth is the depth of complete d-ary trees.
	ParamDepth = "depth"
)

// Params is an immutable bag of named integer parameters for a topology
// builder. Construct one with MakeParams or pass Param options directly to
// New.
type Params struct {
	values map[string]int
}

// Param sets one named parameter; the constructors below (Nodes, Degree,
// Diameter, ...) are the public vocabulary.
type Param func(*Params)

func setParam(name string, v int) Param {
	return func(p *Params) {
		if p.values == nil {
			p.values = make(map[string]int)
		}
		p.values[name] = v
	}
}

// Nodes sets the vertex count n.
func Nodes(n int) Param { return setParam(ParamNodes, n) }

// Degree sets the degree parameter d.
func Degree(d int) Param { return setParam(ParamDegree, d) }

// Diameter sets the diameter parameter D of the paper families.
func Diameter(D int) Param { return setParam(ParamDiameter, D) }

// Dimension sets the dimension D of hypercube-like networks.
func Dimension(D int) Param { return setParam(ParamDimension, D) }

// Rows sets the grid/torus row count.
func Rows(a int) Param { return setParam(ParamRows, a) }

// Cols sets the grid/torus column count.
func Cols(b int) Param { return setParam(ParamCols, b) }

// Depth sets the tree depth.
func Depth(k int) Param { return setParam(ParamDepth, k) }

// MakeParams folds Param options into a Params bag.
func MakeParams(ps ...Param) Params {
	var out Params
	for _, p := range ps {
		p(&out)
	}
	return out
}

// Get returns the value of a named parameter and whether it was set.
func (p Params) Get(name string) (int, bool) {
	v, ok := p.values[name]
	return v, ok
}

// Names lists the set parameter names in sorted order.
func (p Params) Names() []string {
	names := make([]string, 0, len(p.values))
	for name := range p.values {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Canonical renders the bag as comma-joined "name=value" pairs in sorted
// name order — a stable textual identity independent of the order the
// parameters were supplied in. It is the form RequestKey embeds.
//
//gossip:keywriter Params
func (p Params) Canonical() string {
	var sb strings.Builder
	for i, name := range p.Names() {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%d", name, p.values[name])
	}
	return sb.String()
}

// need fetches a required parameter, failing with ErrBadParam when unset.
func (p Params) need(kind, name string) (int, error) {
	v, ok := p.values[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s requires %s (e.g. systolic.%s)", ErrBadParam, kind, name, paramHint(name))
	}
	return v, nil
}

// atLeast fetches a required parameter and enforces a lower bound.
func (p Params) atLeast(kind, name string, min int) (int, error) {
	v, err := p.need(kind, name)
	if err != nil {
		return 0, err
	}
	if v < min {
		return 0, fmt.Errorf("%w: %s requires %s ≥ %d, got %d", ErrBadParam, kind, name, min, v)
	}
	return v, nil
}

func paramHint(name string) string {
	switch name {
	case ParamNodes:
		return "Nodes(8)"
	case ParamDegree:
		return "Degree(2)"
	case ParamDiameter:
		return "Diameter(5)"
	case ParamDimension:
		return "Dimension(4)"
	case ParamRows:
		return "Rows(3)"
	case ParamCols:
		return "Cols(4)"
	case ParamDepth:
		return "Depth(3)"
	}
	return name
}

// maxInstanceVertices bounds how large a MATERIALIZED instance the
// registry will build; beyond it the adjacency lists would allocate
// gigabytes. Generator-eligible kinds keep building past this line as
// implicit (generator-only) networks, up to maxImplicitVertices.
const maxInstanceVertices = 1 << 26

// maxImplicitVertices bounds implicit (generator-only) instances. The
// streaming kernels carry only O(n) frontier words, so the ceiling is set
// by frontier memory, not arcs: 2^28 vertices is 4 GiB of packed frontier
// (two 8-byte words per vertex) — the practical edge of one scan on a
// large box.
const maxImplicitVertices = 1 << 28

// maxCompleteVertices caps the complete graph separately: K_n materializes
// n² arcs, so the generic vertex ceiling would still admit gigabyte-scale
// builds (n=8192 is already ~67M arcs). 2048² ≈ 4.2M arcs stays modest.
const maxCompleteVertices = 2048

// materializeThreshold is the vertex count above which generator-eligible
// registry builders skip materialization and return an implicit network.
// At or below it both representations are attached (G for schedule
// compilers and bounds, Gen for the streaming kernels); above it only Gen.
// 2^19 keeps every materialized build's sorted-adjacency footprint
// modest and puts the 2^20-node hypercube (dimension 20) on the implicit
// side — the scale tier's acceptance point.
const materializeThreshold = 1 << 19

// checkSize rejects parameterizations whose vertex count base^exp (times
// factor) exceeds the limit, before the generator allocates.
func checkSize(kind string, base, exp, factor int) error {
	return checkSizeLimit(kind, base, exp, factor, maxInstanceVertices)
}

// checkImplicitSize is checkSize with the generator-only ceiling: used by
// registry builders for generator-eligible kinds, which never allocate
// adjacency and so tolerate far larger n.
func checkImplicitSize(kind string, base, exp, factor int) error {
	return checkSizeLimit(kind, base, exp, factor, maxImplicitVertices)
}

func checkSizeLimit(kind string, base, exp, factor, limit int) error {
	n := factor
	if n > limit || n <= 0 {
		return fmt.Errorf("%w: %s instance too large (> %d vertices)", ErrBadParam, kind, limit)
	}
	for i := 0; i < exp; i++ {
		n *= base
		if n > limit || n <= 0 {
			return fmt.Errorf("%w: %s instance too large (> %d vertices)", ErrBadParam, kind, limit)
		}
	}
	return nil
}

// sizeOf computes factor·base^exp without overflow concerns after a
// checkSizeLimit pass; callers use it to decide materialized vs implicit.
func sizeOf(base, exp, factor int) int {
	n := factor
	for i := 0; i < exp; i++ {
		n *= base
	}
	return n
}
