package systolic

import (
	"context"
	"testing"
)

// BenchmarkCertifyScenario measures the Monte-Carlo certification on the
// acceptance workload's network — hypercube d=10 (1024 vertices) under 5%
// uniform loss — at 64 trials per iteration with the compiled Program and
// DelayPlan cached, the way the serving layer runs it. Trials fan across
// parallel workers; each worker reuses one state and one trial object, so
// the steady-state cost is the masked stepping itself.
func BenchmarkCertifyScenario(b *testing.B) {
	net, err := New("hypercube", Dimension(10))
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProtocol("periodic-full", net, DefaultRoundBudget)
	if err != nil {
		b.Fatal(err)
	}
	net.G.Diameter()
	pr, err := CompileProtocol(net, p)
	if err != nil {
		b.Fatal(err)
	}
	dp, err := pr.DelayPlan()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sc := &Scenario{Loss: 0.05, Seed: 1}
	cert, err := CertifyScenarioProgram(ctx, pr, sc, 64, WithDelayPlan(dp))
	if err != nil {
		b.Fatal(err)
	}
	if cert.Trials.Completed != 64 || !cert.BoundRespected {
		b.Fatalf("warm-up certificate unexpected: %+v", cert.Trials)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CertifyScenarioProgram(ctx, pr, sc, 64, WithDelayPlan(dp)); err != nil {
			b.Fatal(err)
		}
	}
}
