package systolic

import "runtime"

// DefaultRoundBudget caps simulated rounds when no WithRoundBudget option
// is given.
const DefaultRoundBudget = 100000

// Observer receives per-round progress from Simulate/Analyze; install one
// with WithTrace. Calls are sequential within one simulation but a Sweep
// runs jobs concurrently, so an observer shared across jobs must be
// safe for concurrent use.
type Observer interface {
	// Round is called after each executed round with the 1-based round
	// number, the current knowledge count (sum over processors of known
	// items) and the target count at which dissemination is complete.
	Round(round, knowledge, target int)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(round, knowledge, target int)

// Round implements Observer.
func (f ObserverFunc) Round(round, knowledge, target int) { f(round, knowledge, target) }

// ScanObserver is the trace seam of multi-source broadcast scans. A plain
// Observer cannot interpret AnalyzeBroadcastAll progress — its Round
// carries no source identity, and a scan steps 64 sources per round — so
// an observer that additionally implements ScanObserver receives
// ScanRound instead of Round: the 0-based batch of up to 64 sources being
// stepped, the 1-based round within that batch, and the batch's informed
// column count (the number of (vertex, source) pairs already informed,
// out of totalColumns = active sources × n). Each (batch, round) is
// emitted once; columns are monotone within a batch and reach
// totalColumns when every source of the batch completes. Scans may step
// batches concurrently (WithWorkers), so implementations must be safe for
// concurrent use.
type ScanObserver interface {
	Observer
	ScanRound(batch, round, informedColumns, totalColumns int)
}

type config struct {
	budget    int
	observer  Observer
	workers   int
	delayPlan *DelayPlan
	source    int
	sources   []int
	maxMemory int64
}

func newConfig(opts []Option) config {
	cfg := config{
		budget:  DefaultRoundBudget,
		workers: runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.budget < 1 {
		cfg.budget = 1
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	return cfg
}

// Option configures Analyze, Simulate, AnalyzeBroadcast and Sweep.
type Option func(*config)

// WithRoundBudget caps the number of simulated rounds (default
// DefaultRoundBudget). Hitting the cap before completion yields
// ErrIncomplete.
func WithRoundBudget(n int) Option { return func(c *config) { c.budget = n } }

// WithTrace installs an observer that is called after every simulated
// round — the hook behind dissemination curves and progress displays.
func WithTrace(o Observer) Option { return func(c *config) { c.observer = o } }

// WithWorkers caps the width of a call's fan-outs (default GOMAXPROCS): the
// number of Sweep/SweepStream jobs, scan batches or scenario trials in
// flight at once, and the number of shares a session or single-batch scan
// cuts each round into once the network reaches DefaultShardThreshold
// vertices. It sizes no pool: every fan-out runs on the calling goroutine
// plus whichever of the process's GOMAXPROCS parked helpers are free, and
// runs inline when none is. Results are byte-identical for every value;
// WithWorkers(1) forces serial execution everywhere.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithSource selects the broadcast source vertex (default 0) of a session
// running a generator-backed protocol — those sessions simulate
// single-source dissemination on the packed frontier, and this is the seam
// that picks the source without re-compiling the program. Out-of-range
// sources fail session construction with ErrBadParam. Gossip sessions and
// the explicit-source entry points (NewBroadcastEngine, CertifyBroadcast)
// ignore it.
func WithSource(v int) Option { return func(c *config) { c.source = v } }

// WithSources restricts AnalyzeBroadcastAll to the given source vertices,
// in the given order: the report's Rounds[i] measures Sources[i], and the
// extremes and statistics cover only the subset. Sources must be in range
// and free of duplicates (ErrBadParam otherwise); nil — or not passing the
// option — scans every vertex. A subset scan equals the corresponding
// rows of a full scan, and is the seam source-sharded cluster scans
// partition on.
func WithSources(sources []int) Option { return func(c *config) { c.sources = sources } }

// WithMaxMemory caps the estimated working memory of AnalyzeBroadcastAll
// in bytes — the guard rail for serving layers that must not let one scan
// balloon the process. A scan over a materialized network whose
// in-neighbor CSR would exceed the cap floods over the network's generator
// instead (when it carries one); if neither fits the cap the scan fails
// with ErrMemoryBudget instead of allocating. Zero or negative means no
// cap.
func WithMaxMemory(bytes int64) Option { return func(c *config) { c.maxMemory = bytes } }

// WithDelayPlan hands Certify a pre-compiled delay lowering
// (CompileDelayPlan / Program.DelayPlan) so repeated certifications of the
// same schedule never rebuild the delay digraph: the plan's memoized
// instances and norm evaluations are shared across sessions. A plan whose
// protocol fingerprint does not match the session's schedule is ignored
// (the session compiles its own).
func WithDelayPlan(dp *DelayPlan) Option { return func(c *config) { c.delayPlan = dp } }
