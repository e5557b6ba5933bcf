package systolic

import (
	"context"
	"testing"
)

// certifyBenchSetup builds the hypercube d=12 workload of the acceptance
// criterion: 4096 vertices under the 12-systolic full-duplex dimension
// exchange. The diameter memo is primed off the timer (both paths share it).
func certifyBenchSetup(b *testing.B) (*Network, *Protocol) {
	b.Helper()
	net, err := New("hypercube", Dimension(12))
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProtocol("hypercube", net, DefaultRoundBudget)
	if err != nil {
		b.Fatal(err)
	}
	net.G.Diameter()
	return net, p
}

// BenchmarkCertify measures the cached certification path: the compiled
// Program and DelayPlan are built once (as the serving layer's LRUs hold
// them) and every iteration runs a fresh session plus the certification —
// no schedule compile, no delay-digraph rebuild, memoized ‖M(λ₀)‖.
// BENCH.json bounds its ratio to BenchmarkCertifyRebuild.
func BenchmarkCertify(b *testing.B) {
	net, p := certifyBenchSetup(b)
	pr, err := CompileProtocol(net, p)
	if err != nil {
		b.Fatal(err)
	}
	dp, err := pr.DelayPlan()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	run := func() *Certificate {
		sess, err := NewEngineFromProgram(pr, WithDelayPlan(dp), WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		cert, err := sess.Certify(ctx)
		if err != nil {
			b.Fatal(err)
		}
		return cert
	}
	if cert := run(); !cert.Complete || !cert.TheoremRespected {
		b.Fatalf("warm-up certificate unexpected: %+v", cert)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkCertifyRebuild is the pre-refactor rebuild-per-call Analyze
// path on the same workload: every iteration validates and compiles the
// schedule, rebuilds the delay digraph and recomputes ‖M(λ₀)‖ from scratch.
func BenchmarkCertifyRebuild(b *testing.B) {
	net, p := certifyBenchSetup(b)
	ctx := context.Background()
	rep, err := Analyze(ctx, net, p, WithWorkers(1))
	if err != nil || !rep.TheoremRespected {
		b.Fatalf("warm-up analyze: %v (%+v)", err, rep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(ctx, net, p, WithWorkers(1)); err != nil {
			b.Fatal(err)
		}
	}
}
