package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/systolic"
)

func TestInputsDeterministic(t *testing.T) {
	a, err := marshalInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := marshalInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	c, err := marshalInputs(8)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
}

func TestCertifyPassCoversPoolOnce(t *testing.T) {
	pool := certifyPool()
	for seed := uint64(0); seed < 5; seed++ {
		cp := newCertifyPlan(seed)
		slots := map[Pair][]int{}
		for k := 0; k < 4; k++ {
			seen := map[Pair]int{}
			for _, j := range cp.Pass(k) {
				seen[j.Pair]++
				slots[j.Pair] = append(slots[j.Pair], j.SizeSlot)
			}
			if len(seen) != len(pool) {
				t.Fatalf("seed %d pass %d: %d distinct pairs, pool has %d", seed, k, len(seen), len(pool))
			}
			for p, n := range seen {
				if n != 1 {
					t.Fatalf("seed %d pass %d: %s certified %d times", seed, k, p, n)
				}
			}
		}
		// Every cycle of two passes certifies each pair at both sizes.
		for p, s := range slots {
			if s[0] == s[1] || s[2] == s[3] {
				t.Fatalf("seed %d: %s size slots %v do not alternate", seed, p, s)
			}
		}
	}
}

func TestPoolAvoidsExcludedPairs(t *testing.T) {
	excluded := map[Pair]bool{}
	for _, p := range excludedPairs {
		excluded[p] = true
	}
	inPool := map[Pair]bool{}
	for _, p := range certifyPool() {
		if excluded[p] {
			t.Errorf("certify pool contains excluded pair %s", p)
		}
		inPool[p] = true
	}
	for _, k := range lightKeys {
		if p := (Pair{k.Kind, k.Protocol}); !inPool[p] {
			t.Errorf("serve key %s is not an admitted pair", p)
		}
	}
	if n := len(certifyPool()); n != 103 {
		t.Errorf("certify pool has %d pairs, want 103", n)
	}
}

func TestCertifyTableCoversPool(t *testing.T) {
	table, err := loadCertifyTable()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range certifyPool() {
		for slot, size := range certifySizes[p.Kind] {
			want++
			e, ok := table[tableKey(CertifyJob{Pair: p, Size: size, SizeSlot: slot})]
			if !ok || !e.holds() {
				t.Errorf("%s at %s: recorded %+v (present %v)", p, size.canonical(), e, ok)
			}
		}
	}
	if len(table) != want {
		t.Errorf("table has %d entries, want %d", len(table), want)
	}
}

// probeSizes are the instances with at most 200 vertices the exclusion
// list was derived from.
func probeSizes(kind string) []Size {
	var out []Size
	switch kind {
	case "path", "cycle", "complete":
		for n := 3; n <= 40; n++ {
			out = append(out, Size{"nodes": n})
		}
	case "hypercube", "shuffle-exchange", "ccc":
		for d := 1; d <= 6; d++ {
			out = append(out, Size{"dimension": d})
		}
	case "grid", "torus":
		for a := 2; a <= 6; a++ {
			for b := 2; b <= 6; b++ {
				out = append(out, Size{"rows": a, "cols": b})
			}
		}
	case "tree":
		for d := 2; d <= 4; d++ {
			for k := 1; k <= 4; k++ {
				out = append(out, Size{"degree": d, "depth": k})
			}
		}
	default:
		for d := 2; d <= 4; d++ {
			for k := 1; k <= 4; k++ {
				out = append(out, Size{"degree": d, "diameter": k})
			}
		}
	}
	return out
}

func panics(net *systolic.Network, protocol string) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	_, _ = systolic.NewProtocol(protocol, net, 1000)
	return false
}

// TestExcludedPairsPanic fails once an excluded pair stops panicking, so
// the pair can be re-admitted to the certify pool and the serve key space.
func TestExcludedPairsPanic(t *testing.T) {
	excluded := map[Pair]bool{}
	for _, p := range excludedPairs {
		excluded[p] = true
	}
	for _, kind := range systolic.Kinds() {
		for _, proto := range systolic.ProtocolKinds() {
			p := Pair{kind, proto}
			found := false
			for _, size := range probeSizes(kind) {
				net, err := systolic.New(kind, size.params()...)
				if err != nil || net.N() > 200 {
					continue
				}
				if panics(net, proto) {
					found = true
					break
				}
			}
			if found != excluded[p] {
				t.Errorf("%s: NewProtocol panics on some probed instance: %v, excluded: %v", p, found, excluded[p])
			}
		}
	}
}

func TestLayerSelfSumsToWall(t *testing.T) {
	ms := func(n int) int64 { return int64(time.Duration(n) * time.Millisecond) }
	spans := []Span{
		{ID: 1, Name: "bench.iteration", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "gossip.scan", Start: ms(10), End: ms(90)},
		// Two workers' rounds overlap: their union, not their sum, counts.
		{ID: 3, Parent: 2, Name: "gossip.flood_round", Start: ms(10), End: ms(60)},
		{ID: 4, Parent: 2, Name: "gossip.flood_round", Start: ms(20), End: ms(80)},
		{ID: 5, Parent: 1, Name: "delay.norm", Start: ms(92), End: ms(96)},
	}
	self, wall := LayerSelf(spans)
	if wall != 100*time.Millisecond {
		t.Fatalf("wall %v, want 100ms", wall)
	}
	want := map[string]time.Duration{"bench": 16 * time.Millisecond, "gossip": 80 * time.Millisecond, "delay": 4 * time.Millisecond}
	var sum time.Duration
	for l, d := range self {
		sum += d
		if d != want[l] {
			t.Errorf("layer %s self %v, want %v", l, d, want[l])
		}
	}
	if sum != wall {
		t.Errorf("self times sum to %v, wall %v", sum, wall)
	}
}

// inputSeconds is the run length marshalInputs renders the serve schedule
// for.
const inputSeconds = 20

// marshalInputs renders every generated input of a seed, for the
// determinism test.
func marshalInputs(seed uint64) ([]byte, error) {
	cp := newCertifyPlan(seed)
	sp := newServePlan(seed, inputSeconds)
	all := struct {
		Scan      *ScanPlan      `json:"scan"`
		Certify   [][]CertifyJob `json:"certify"`
		ServeWarm []Req          `json:"serve_warm"`
		Serve     []*Rung        `json:"serve"`
	}{newScanPlan(seed), [][]CertifyJob{cp.Pass(0), cp.Pass(1)}, sp.Warm, append(sp.Rungs, sp.Sat, sp.Traced)}
	return json.Marshal(all)
}
