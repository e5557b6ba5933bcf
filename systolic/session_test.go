package systolic

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// compareGolden asserts got matches the named file under testdata,
// rewriting it under -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from the golden file.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func sessionNet(t *testing.T) (*Network, *Protocol) {
	t.Helper()
	net, err := New("debruijn", Degree(2), Diameter(6))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol("periodic-half", net, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net, p
}

// TestSessionChunkedStepMatchesSimulate: stepping a session in arbitrary
// chunk sizes is equivalent to the one-shot Simulate — same completion
// round, same knowledge curve.
func TestSessionChunkedStepMatchesSimulate(t *testing.T) {
	net, p := sessionNet(t)
	ctx := context.Background()

	var curve []int
	res, err := Simulate(ctx, net, p, WithTrace(ObserverFunc(func(_, knowledge, _ int) {
		curve = append(curve, knowledge)
	})))
	if err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{1, 2, 3, 7, 1000000} {
		sess, err := NewEngine(net, p)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for !sess.Done() {
			executed, err := sess.Step(ctx, chunk)
			if err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
			steps += executed
			if sess.Knowledge() != curve[sess.Rounds()-1] {
				t.Fatalf("chunk %d: knowledge %d after round %d, Simulate saw %d",
					chunk, sess.Knowledge(), sess.Rounds(), curve[sess.Rounds()-1])
			}
		}
		if sess.Rounds() != res.Rounds || steps != res.Rounds {
			t.Errorf("chunk %d: completed in %d rounds (%d stepped), Simulate took %d",
				chunk, sess.Rounds(), steps, res.Rounds)
		}
		if sess.Knowledge() != sess.Target() {
			t.Errorf("chunk %d: done with knowledge %d != target %d", chunk, sess.Knowledge(), sess.Target())
		}
		frontier := sess.Frontier()
		if len(frontier) != res.Rounds {
			t.Fatalf("chunk %d: frontier has %d entries, want %d", chunk, len(frontier), res.Rounds)
		}
		sum := net.G.N() // initial knowledge: every processor knows its own item
		for _, gained := range frontier {
			sum += gained
		}
		if sum != sess.Target() {
			t.Errorf("chunk %d: frontier sums to %d, want target %d", chunk, sum, sess.Target())
		}
		sess.Close()
	}
}

// TestSessionSnapshotRestoreRoundTrip: a mid-flight snapshot survives a
// JSON round trip and the restored session resumes deterministically to
// the same completion.
func TestSessionSnapshotRestoreRoundTrip(t *testing.T) {
	net, p := sessionNet(t)
	ctx := context.Background()

	ref, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Step(ctx, 5); err != nil {
		t.Fatal(err)
	}
	ck := ref.Snapshot()

	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.Restore(back); err != nil {
		t.Fatal(err)
	}
	if resumed.Rounds() != 5 || resumed.Knowledge() != ref.Knowledge() {
		t.Fatalf("restored session at round %d knowledge %d, want round 5 knowledge %d",
			resumed.Rounds(), resumed.Knowledge(), ref.Knowledge())
	}

	refRes, err := ref.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resRes, err := resumed.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if refRes != resRes {
		t.Errorf("resumed run %+v differs from original %+v", resRes, refRes)
	}
	refFinal, resFinal := ref.Snapshot(), resumed.Snapshot()
	if refFinal.State != resFinal.State || len(refFinal.Frontier) != len(resFinal.Frontier) {
		t.Error("final states diverged after restore")
	}
}

// TestSessionRestoreRejectsMismatches: checkpoints from the wrong network,
// mode or with corrupt payloads are refused.
func TestSessionRestoreRejectsMismatches(t *testing.T) {
	net, p := sessionNet(t)
	ctx := context.Background()
	sess, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Step(ctx, 3); err != nil {
		t.Fatal(err)
	}
	good := sess.Snapshot()

	cases := map[string]func(c Checkpoint) Checkpoint{
		"version":   func(c Checkpoint) Checkpoint { c.Version = 99; return c },
		"mode":      func(c Checkpoint) Checkpoint { c.Mode = "broadcast"; return c },
		"n":         func(c Checkpoint) Checkpoint { c.N = 7; return c },
		"network":   func(c Checkpoint) Checkpoint { c.Network = "other"; return c },
		"payload":   func(c Checkpoint) Checkpoint { c.State = "not base64!"; return c },
		"truncated": func(c Checkpoint) Checkpoint { c.State = c.State[:8]; return c },
		"knowledge": func(c Checkpoint) Checkpoint { c.Knowledge++; return c },
		"protocol":  func(c Checkpoint) Checkpoint { c.Protocol = "deadbeefdeadbeef"; return c },
		"frontier-len": func(c Checkpoint) Checkpoint {
			c.Frontier = c.Frontier[:len(c.Frontier)-1]
			return c
		},
		"frontier-sum": func(c Checkpoint) Checkpoint {
			f := append([]int(nil), c.Frontier...)
			f[0]++
			c.Frontier = f
			return c
		},
	}
	full, err := Simulate(ctx, net, p)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range cases {
		target, err := NewEngine(net, p)
		if err != nil {
			t.Fatal(err)
		}
		bad := mutate(*good)
		if err := target.Restore(&bad); err == nil {
			t.Errorf("%s: corrupted checkpoint was accepted", name)
		} else if !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: rejection %v does not wrap ErrBadCheckpoint", name, err)
		}
		// Restore is atomic: the rejected checkpoint must not have touched
		// the session, which still runs to the untouched completion.
		if target.Rounds() != 0 || target.Knowledge() != net.G.N() {
			t.Errorf("%s: failed Restore mutated the session (round %d, knowledge %d)",
				name, target.Rounds(), target.Knowledge())
		}
		if res, err := target.Run(ctx); err != nil || res != full {
			t.Errorf("%s: session after failed Restore ran to %+v (%v), want %+v", name, res, err, full)
		}
		target.Close()
	}

	// A session running a different protocol on the same network refuses
	// the checkpoint too.
	other, err := NewProtocol("periodic-interleaved", net, 0)
	if err != nil {
		t.Fatal(err)
	}
	mismatched, err := NewEngine(net, other)
	if err != nil {
		t.Fatal(err)
	}
	defer mismatched.Close()
	if err := mismatched.Restore(good); err == nil {
		t.Error("checkpoint restored under a different protocol")
	} else if !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("protocol mismatch rejection %v does not wrap ErrBadCheckpoint", err)
	}

	// The pristine checkpoint still restores.
	target, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	if err := target.Restore(good); err != nil {
		t.Errorf("pristine checkpoint rejected: %v", err)
	}
}

// TestSessionShardedMatchesSerial: a gossip session sharded across 1..8
// workers is byte-identical to the serial session after every round. The
// network (hypercube d=11, 2048 vertices) reaches DefaultShardThreshold,
// so every multi-worker session really shards its rounds.
func TestSessionShardedMatchesSerial(t *testing.T) {
	net, err := New("hypercube", Dimension(11))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol("periodic-full", net, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	serial, err := NewEngine(net, p, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	var snapshots []string
	for !serial.Done() {
		if _, err := serial.Step(ctx, 1); err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, serial.Snapshot().State)
	}

	for workers := 1; workers <= 8; workers++ {
		sess, err := NewEngine(net, p, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if sess.st.Shards() != workers {
			t.Fatalf("workers=%d: session steps %d shards", workers, sess.st.Shards())
		}
		for r := 0; !sess.Done(); r++ {
			if _, err := sess.Step(ctx, 1); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if sess.Snapshot().State != snapshots[r] {
				t.Fatalf("workers=%d: state diverged from serial at round %d", workers, r+1)
			}
		}
		if sess.Rounds() != len(snapshots) {
			t.Errorf("workers=%d: completed in %d rounds, serial took %d", workers, sess.Rounds(), len(snapshots))
		}
		sess.Close()
	}
}

// TestSessionBudget: a session that hits its budget reports ErrIncomplete
// from Step and Run but stays resumable if reconstructed with more budget.
func TestSessionBudget(t *testing.T) {
	net, p := sessionNet(t)
	ctx := context.Background()

	sess, err := NewEngine(net, p, WithRoundBudget(3))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Step(ctx, 100); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Step past the budget: %v, want ErrIncomplete", err)
	}
	if sess.Rounds() != 3 || sess.Done() {
		t.Fatalf("budget-stopped session at round %d done=%v", sess.Rounds(), sess.Done())
	}
	if _, err := sess.Run(ctx); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Run past the budget: %v, want ErrIncomplete", err)
	}

	// Resume through a checkpoint into a roomier session.
	resumed, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.Restore(sess.Snapshot()); err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Simulate(ctx, net, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != full.Rounds {
		t.Errorf("resumed completion at round %d, one-shot at %d", res.Rounds, full.Rounds)
	}
}

// TestSessionContextCancellation: a cancelled context stops Step between
// rounds with the context error.
func TestSessionContextCancellation(t *testing.T) {
	net, p := sessionNet(t)
	sess, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Step(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("Step on cancelled context: %v", err)
	}
	if sess.Rounds() != 0 {
		t.Errorf("cancelled session executed %d rounds", sess.Rounds())
	}
}

// TestBroadcastSessionMatchesAnalyzeBroadcast: the broadcast engine agrees
// with the one-shot wrapper and checkpoints like a gossip session.
func TestBroadcastSessionMatchesAnalyzeBroadcast(t *testing.T) {
	net, err := New("wbf", Degree(2), Diameter(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := AnalyzeBroadcast(ctx, net, 5)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := NewBroadcastEngine(net, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Step(ctx, 2); err != nil {
		t.Fatal(err)
	}
	ck := sess.Snapshot()
	if ck.Mode != "broadcast" || ck.Source != 5 {
		t.Fatalf("broadcast checkpoint misdescribes itself: %+v", ck)
	}

	resumed, err := NewBroadcastEngine(net, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.Restore(ck); err != nil {
		t.Fatal(err)
	}
	rep, err := resumed.AnalyzeBroadcast(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if *rep != *want {
		t.Errorf("resumed broadcast report %+v, want %+v", *rep, *want)
	}

	if _, err := NewBroadcastEngine(net, net.G.N()); !errors.Is(err, ErrBadParam) {
		t.Error("out-of-range broadcast source was accepted")
	}
	if _, err := sess.Analyze(ctx); err == nil {
		t.Error("Analyze on a broadcast session should error")
	}
}

// TestSessionAnalyzeMatchesWrapper: Session.Analyze equals the one-shot
// Analyze report even when the run resumed mid-flight.
func TestSessionAnalyzeMatchesWrapper(t *testing.T) {
	net, p := sessionNet(t)
	ctx := context.Background()
	want, err := Analyze(ctx, net, p)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Step(ctx, 4); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("session report %+v, want %+v", *got, *want)
	}
	if _, err := sess.AnalyzeBroadcast(ctx); err == nil {
		t.Error("AnalyzeBroadcast on a gossip session should error")
	}
}

// TestSessionTrivialNetworkDoneImmediately: n == 1 completes at round 0,
// matching the one-shot wrappers.
func TestSessionTrivialNetworkDoneImmediately(t *testing.T) {
	net, err := New("complete", Nodes(1))
	if err != nil {
		t.Fatal(err)
	}
	p := &Protocol{Mode: HalfDuplex}
	sess, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if !sess.Done() || sess.Rounds() != 0 {
		t.Fatalf("singleton network not done at construction: done=%v rounds=%d", sess.Done(), sess.Rounds())
	}
	res, err := sess.Run(context.Background())
	if err != nil || res.Rounds != 0 {
		t.Fatalf("singleton Run = %+v, %v", res, err)
	}
}

// TestSweepStreamMatchesSweep: the stream emits exactly the barrier
// Sweep's results (keyed by Index), just in completion order.
func TestSweepStreamMatchesSweep(t *testing.T) {
	jobs := []SweepJob{
		{Label: "db", Kind: "debruijn",
			Params:   []Param{Degree(2), Diameter(4)},
			Protocol: UseProtocol("periodic-half", 0)},
		{Label: "cycle", Kind: "cycle",
			Params:   []Param{Nodes(16)},
			Protocol: UseProtocol("cycle2", 0)},
		{Label: "bad", Kind: "no-such-kind"},
		{Label: "hc", Kind: "hypercube",
			Params:   []Param{Dimension(4)},
			Protocol: UseProtocol("hypercube", 0)},
	}
	ctx := context.Background()
	want, err := Sweep(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}

	seen := make([]bool, len(jobs))
	count := 0
	for res := range SweepStream(ctx, jobs) {
		if res.Index < 0 || res.Index >= len(jobs) || seen[res.Index] {
			t.Fatalf("stream emitted bad/duplicate index %d", res.Index)
		}
		seen[res.Index] = true
		count++
		w := want[res.Index]
		if res.Label != w.Label || res.Network != w.Network || res.N != w.N {
			t.Errorf("job %d envelope mismatch: stream %+v, sweep %+v", res.Index, res, w)
		}
		if (res.Err == nil) != (w.Err == nil) {
			t.Errorf("job %d error mismatch: stream %v, sweep %v", res.Index, res.Err, w.Err)
		}
		if res.Report != nil && w.Report != nil && *res.Report != *w.Report {
			t.Errorf("job %d report mismatch", res.Index)
		}
	}
	if count != len(jobs) {
		t.Errorf("stream emitted %d results, want %d", count, len(jobs))
	}
}

// TestSweepStreamCancellation: cancelling mid-stream still emits one result
// per job and closes the channel.
func TestSweepStreamCancellation(t *testing.T) {
	jobs := make([]SweepJob, 16)
	for i := range jobs {
		jobs[i] = SweepJob{Label: "slow", Kind: "debruijn",
			Params:   []Param{Degree(2), Diameter(5)},
			Protocol: UseProtocol("periodic-half", 0)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := SweepStream(ctx, jobs, WithWorkers(2))
	count, cancelled := 0, 0
	for res := range stream {
		count++
		if errors.Is(res.Err, context.Canceled) {
			cancelled++
		}
		if count == 1 {
			cancel()
		}
	}
	if count != len(jobs) {
		t.Fatalf("stream emitted %d results, want %d", count, len(jobs))
	}
	if cancelled == 0 {
		t.Error("no job was marked with the cancellation error")
	}
}

// TestCheckpointJSONGolden pins the checkpoint wire schema the same way the
// report goldens do: a literal checkpoint marshals byte-for-byte to
// testdata/checkpoint.golden.json. Regenerate with -update after an
// intentional schema change.
func TestCheckpointJSONGolden(t *testing.T) {
	ck := &Checkpoint{
		Version:   1,
		Network:   "DB(2,4)",
		Mode:      "gossip",
		N:         16,
		Source:    -1,
		Round:     3,
		Done:      false,
		Knowledge: 58,
		Protocol:  "00112233aabbccdd",
		Frontier:  []int{14, 13, 15},
		State:     "AQAAAAAAAAA=",
	}
	got, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	compareGolden(t, "checkpoint.golden.json", got)
}

// TestCheckpointRealRoundTrip: a checkpoint produced by a live session
// parses back into an identical checkpoint through the JSON helpers.
func TestCheckpointRealRoundTrip(t *testing.T) {
	net, p := sessionNet(t)
	sess, err := NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Step(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	ck := sess.Snapshot()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.State != ck.State || back.Round != ck.Round || back.Knowledge != ck.Knowledge {
		t.Errorf("checkpoint changed across WriteCheckpoint/ReadCheckpoint")
	}
}
