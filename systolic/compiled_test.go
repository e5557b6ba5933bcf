// Differential coverage for the compiled execution pipeline at the public
// layer: for every registered topology kind and every communication mode
// with a catalog protocol, a session executing the compiled Program must
// reproduce a naive reference run exactly — same rounds, same report,
// same checkpoints — and sessions built from one shared Program must be
// indistinguishable from sessions that compiled privately.
package systolic

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gossip"
)

// smallParams instantiates every registered kind at a deliberately small
// size so the full kind × mode differential stays fast.
var smallParams = map[string][]Param{
	"path":             {Nodes(6)},
	"cycle":            {Nodes(7)},
	"complete":         {Nodes(6)},
	"hypercube":        {Dimension(3)},
	"grid":             {Rows(3), Cols(3)},
	"torus":            {Rows(3), Cols(3)},
	"tree":             {Degree(2), Depth(2)},
	"shuffle-exchange": {Dimension(3)},
	"ccc":              {Dimension(3)},
	"butterfly":        {Degree(2), Diameter(2)},
	"wbf":              {Degree(2), Diameter(2)},
	"wbf-digraph":      {Degree(2), Diameter(2)},
	"debruijn":         {Degree(2), Diameter(3)},
	"debruijn-digraph": {Degree(2), Diameter(3)},
	"kautz":            {Degree(2), Diameter(3)},
	"kautz-digraph":    {Degree(2), Diameter(3)},
}

// modeProtocols names the catalog protocol exercising each communication
// mode; the symmetric-only constructions are skipped on directed kinds.
var modeProtocols = []struct {
	protocol      string
	symmetricOnly bool
}{
	{"round-robin", false},  // directed
	{"periodic-half", true}, // half-duplex
	{"periodic-full", true}, // full-duplex
	{"periodic-interleaved", true},
	{"greedy-directed", false},
}

// TestCompiledDifferentialAllKinds runs the compiled session against the
// naive reference interpreter (naive_test.go) for every registered kind ×
// mode pairing and demands identical knowledge after every stepped chunk,
// equal completion rounds, and an identical Analyze report. It doubles as the reachability
// test for every registry entry (shuffle-exchange and ccc included): a
// kind missing from smallParams fails loudly.
func TestCompiledDifferentialAllKinds(t *testing.T) {
	for _, kind := range Kinds() {
		params, ok := smallParams[kind]
		if !ok {
			t.Errorf("registered kind %q has no differential coverage — add it to smallParams", kind)
			continue
		}
		for _, mp := range modeProtocols {
			t.Run(kind+"/"+mp.protocol, func(t *testing.T) {
				net, err := New(kind, params...)
				if err != nil {
					t.Fatalf("building %s: %v", kind, err)
				}
				if mp.symmetricOnly && !net.G.IsSymmetric() {
					t.Skip("symmetric-only protocol on a directed kind")
				}
				p, err := NewProtocol(mp.protocol, net, DefaultRoundBudget)
				if err != nil {
					t.Fatalf("building %s: %v", mp.protocol, err)
				}

				// Compiled session, stepped in randomized chunks; the naive
				// reference follows round for round.
				sess, err := NewEngine(net, p, WithWorkers(1))
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				ref := newNaiveGossip(net.G.N())
				refRounds := 0
				rng := rand.New(rand.NewSource(int64(len(kind) + len(mp.protocol))))
				ctx := context.Background()
				for !sess.Done() {
					if _, err := sess.Step(ctx, 1+rng.Intn(3)); err != nil {
						t.Fatal(err)
					}
					for ; refRounds < sess.Rounds() && !ref.complete(); refRounds++ {
						ref.step(p.Round(refRounds))
					}
					ref.mustMatch(t, sess.st, sess.Rounds())
				}
				if !ref.complete() || sess.Rounds() != refRounds {
					t.Fatalf("compiled session completed in %d rounds, reference in %d (complete %v)",
						sess.Rounds(), refRounds, ref.complete())
				}

				// The Analyze report over the compiled run must match a
				// report built from a fresh compile-per-call Analyze.
				rep, err := sess.Analyze(ctx)
				if err != nil {
					t.Fatal(err)
				}
				rep2, err := Analyze(ctx, net, p)
				if err != nil {
					t.Fatal(err)
				}
				j1, _ := json.Marshal(rep)
				j2, _ := json.Marshal(rep2)
				if !bytes.Equal(j1, j2) {
					t.Fatalf("report mismatch:\n%s\n%s", j1, j2)
				}
				if rep.Measured != refRounds {
					t.Fatalf("report measured %d rounds, reference %d", rep.Measured, refRounds)
				}
			})
		}
	}
}

// TestValidatedProtocolsCompile: Compile admits exactly the round shapes
// Validate does, so every catalog protocol that validates on a registered
// kind must compile, for gossip and broadcast state shapes alike. Pairs
// whose construction fails (an error or a precondition panic) are outside
// the contract and skipped.
func TestValidatedProtocolsCompile(t *testing.T) {
	build := func(name string, net *Network) (p *Protocol, ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		p, err := NewProtocol(name, net, DefaultRoundBudget)
		return p, err == nil
	}
	compiled := 0
	for _, kind := range Kinds() {
		net, err := New(kind, smallParams[kind]...)
		if err != nil {
			t.Fatalf("building %s: %v", kind, err)
		}
		n := net.G.N()
		for _, name := range ProtocolKinds() {
			p, ok := build(name, net)
			if !ok || p.Validate(net.G) != nil {
				continue
			}
			for _, items := range []int{n, 1} {
				if _, err := gossip.Compile(p, n, items); err != nil {
					t.Errorf("%s/%s validates but does not compile (items=%d): %v", kind, name, items, err)
				}
			}
			compiled++
		}
	}
	if compiled < len(Kinds())*3 {
		t.Fatalf("only %d (kind, protocol) pairs validated; the registry sweep is vacuous", compiled)
	}
}

// TestCompiledCheckpointDifferential: checkpoints taken mid-flight from a
// compiled session restore into both freshly compiled sessions and
// sessions sharing a cached Program, and the resumed runs finish exactly
// like an uninterrupted one.
func TestCompiledCheckpointDifferential(t *testing.T) {
	net, err := New("debruijn", Degree(2), Diameter(4))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol("periodic-half", net, DefaultRoundBudget)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileProtocol(net, p)
	if err != nil {
		t.Fatal(err)
	}

	full, err := NewEngineFromProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	ctx := context.Background()
	res, err := full.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	half, err := NewEngineFromProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	defer half.Close()
	if _, err := half.Step(ctx, res.Rounds/2); err != nil {
		t.Fatal(err)
	}
	cp := half.Snapshot()
	if cp.Protocol != prog.Fingerprint() {
		t.Fatalf("checkpoint fingerprint %s, program %s", cp.Protocol, prog.Fingerprint())
	}

	// Round-trip through JSON, restore into a shared-program session and a
	// compile-per-session engine; both must finish like the full run.
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	for name, mk := range map[string]func() (*Session, error){
		"shared-program": func() (*Session, error) { return NewEngineFromProgram(prog) },
		"fresh-compile":  func() (*Session, error) { return NewEngine(net, p) },
	} {
		back, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sess, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sess.Restore(back); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		got, err := sess.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Rounds != res.Rounds {
			t.Fatalf("%s: resumed run finished in %d rounds, want %d", name, got.Rounds, res.Rounds)
		}
		if !bytes.Equal(sess.st.Export(), full.st.Export()) {
			t.Fatalf("%s: resumed state differs from uninterrupted run", name)
		}
		sess.Close()
	}
}

// TestSharedProgramConcurrentSessions: one compiled Program backing many
// concurrent sessions (the serving layer's pattern) must give every
// session the same answer as a private compile, including under sharding:
// the network (hypercube d=11) reaches DefaultShardThreshold, so sessions
// with more than one worker shard their rounds.
func TestSharedProgramConcurrentSessions(t *testing.T) {
	net, err := New("hypercube", Dimension(11))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol("periodic-full", net, DefaultRoundBudget)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileProtocol(net, p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Analyze(context.Background(), net, p)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	reps := make([]*Report, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := NewEngineFromProgram(prog, WithWorkers(1+i%4))
			if err != nil {
				errs[i] = err
				return
			}
			defer sess.Close()
			if got := sess.st.Shards(); got != 1+i%4 {
				errs[i] = fmt.Errorf("%d workers, %d shards", 1+i%4, got)
				return
			}
			reps[i], errs[i] = sess.Analyze(context.Background())
		}(i)
	}
	wg.Wait()
	want, _ := json.Marshal(ref)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if got, _ := json.Marshal(reps[i]); !bytes.Equal(got, want) {
			t.Fatalf("session %d report diverged:\n%s\n%s", i, got, want)
		}
	}
}
