package systolic

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/gossip"
	"repro/internal/graph"
)

// BroadcastReport compares a measured broadcast time against the
// bounded-degree lower bound b(G) ≥ c(d)·log₂(n) of Liestman–Peters and
// Bermond et al. [22,2] that the paper's Section 6 ties to the full-duplex
// systolic bounds. It is JSON-serializable.
type BroadcastReport struct {
	Network  string `json:"network"`
	Source   int    `json:"source"`
	Measured int    `json:"measured_rounds"`
	// CBound is the certified information/degree lower bound:
	// max(⌈log₂ n⌉ floor of the c(d)·log₂ n bound, eccentricity of the
	// source).
	CBound int `json:"c_bound"`
	// C is the constant c(d) for the network's degree parameter; +Inf
	// (null in JSON) when none exists, as on paths and cycles.
	C float64 `json:"c"`
}

// jsonConstant is c(d) on the wire. JSON has no infinity, so the +Inf of a
// degree parameter without a broadcasting constant travels as null.
type jsonConstant float64

func (c jsonConstant) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(c), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(c))
}

func (c *jsonConstant) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*c = jsonConstant(math.Inf(1))
		return nil
	}
	return json.Unmarshal(data, (*float64)(c))
}

// MarshalJSON encodes the report with an infinite C as null.
func (r BroadcastReport) MarshalJSON() ([]byte, error) {
	type fields BroadcastReport // the same fields without these methods
	return json.Marshal(struct {
		fields
		C jsonConstant `json:"c"` // shadows fields.C, keeping its place last
	}{fields(r), jsonConstant(r.C)})
}

// UnmarshalJSON decodes a null C as +Inf.
func (r *BroadcastReport) UnmarshalJSON(data []byte) error {
	type fields BroadcastReport
	w := struct {
		*fields
		C jsonConstant `json:"c"`
	}{fields: (*fields)(r)}
	err := json.Unmarshal(data, &w)
	r.C = float64(w.C)
	return err
}

// AnalyzeBroadcast builds the BFS-tree broadcast schedule from source,
// simulates it (context-aware, within the WithRoundBudget cap), and
// evaluates the broadcasting lower bound. The measured time always
// dominates the bound (tests rely on this). It is a convenience wrapper
// over NewBroadcastEngine + Session.AnalyzeBroadcast; the session runs the
// packed frontier backend, one bit per vertex.
func AnalyzeBroadcast(ctx context.Context, net *Network, source int, opts ...Option) (*BroadcastReport, error) {
	sess, err := NewBroadcastEngine(net, source, opts...)
	if err != nil {
		return nil, fmt.Errorf("systolic: broadcast on %s: %w", net.Name, err)
	}
	defer sess.Close()
	return sess.AnalyzeBroadcast(ctx)
}

// AnalyzeBroadcast runs the broadcast session to completion (resuming from
// wherever it is) and evaluates the broadcasting lower bound. It errors on
// gossip sessions (use Analyze). Since the certification refactor it is a
// view over Session.Certify: a budget-truncated run, which Certify reports
// as an inapplicable certificate, keeps surfacing here as ErrIncomplete.
func (s *Session) AnalyzeBroadcast(ctx context.Context) (*BroadcastReport, error) {
	if !s.broadcast {
		return nil, fmt.Errorf("%w: broadcast on %s: gossip sessions produce Reports", ErrWrongMode, s.net.Name)
	}
	cert, err := s.certifyBroadcast(ctx, "broadcast on")
	if err != nil {
		return nil, err
	}
	if !cert.Complete {
		return nil, fmt.Errorf("systolic: broadcast on %s: %w (budget %d)", s.net.Name, ErrIncomplete, s.budget)
	}
	return &BroadcastReport{
		Network:  cert.Network,
		Source:   cert.Broadcast.Source,
		Measured: cert.Measured,
		CBound:   cert.Broadcast.CBound,
		C:        cert.Broadcast.C,
	}, nil
}

// String renders the report.
func (r *BroadcastReport) String() string {
	return fmt.Sprintf("%s: broadcast from %d in %d rounds ≥ certified bound %d (c(d)=%.4f asymptotic)",
		r.Network, r.Source, r.Measured, r.CBound, r.C)
}

// RoundsBucket is one bucket of the per-source rounds histogram: Count
// sources complete in exactly Rounds rounds.
type RoundsBucket struct {
	Rounds int `json:"rounds"`
	Count  int `json:"count"`
}

// BroadcastAllReport is the outcome of measuring the flooding broadcast
// time from a set of sources (every vertex unless WithSources restricts
// the scan): the per-source round counts plus the extremes and summary
// statistics. Under flooding — every informed vertex informs all its
// out-neighbors each round, the schedule the packed 64-source kernel steps
// — the time from source v is exactly v's directed eccentricity, so
// max_rounds over all sources is the network's flooding broadcast time
// b(G) (the diameter), and the statistics are the network's eccentricity
// profile. It is JSON-serializable.
type BroadcastAllReport struct {
	Network string `json:"network"`
	// Sources lists the scanned sources when the scan was restricted with
	// WithSources; nil (omitted) means every vertex was scanned and
	// Rounds[v] belongs to source v.
	Sources []int `json:"sources,omitempty"`
	// Rounds[i] is the measured broadcast time from the i-th scanned
	// source (vertex i on a full scan, Sources[i] on a subset scan).
	Rounds []int `json:"rounds_by_source"`
	// Worst and WorstSource locate b(G) = max over the scanned sources;
	// Best and BestSource the cheapest source. The source fields hold
	// vertex ids, also on subset scans.
	Worst       int `json:"worst_rounds"`
	WorstSource int `json:"worst_source"`
	Best        int `json:"best_rounds"`
	BestSource  int `json:"best_source"`
	// MeanRounds and Histogram summarize the per-source eccentricity
	// profile: the mean broadcast time over the scanned sources and the
	// count of sources per distinct round value, ascending.
	MeanRounds float64        `json:"mean_rounds"`
	Histogram  []RoundsBucket `json:"rounds_histogram"`
	// Bound is the per-source certification floor: the c(d)·log₂ n lower
	// bound evaluated against every scanned source's measurement during the
	// scan's summary pass (Source is -1; MinRounds/MaxRounds bracket the
	// measurements; Violations counts sources below the floor). It points
	// into boundStore so summaries stay allocation-free beyond the report.
	Bound      *BroadcastBound `json:"bound,omitempty"`
	boundStore BroadcastBound
}

// AnalyzeBroadcastAll measures the flooding broadcast time from every
// source of the network (or the WithSources subset) in one scan.
//
// Flooding is source-independent — the same "every arc, every round"
// schedule serves all sources — so it lowers once (graph.LowerFlood) into
// a destination-major CSR, and the scan packs up to 64 sources into the 64
// bits of each knowledge word and steps them simultaneously through the
// compiled schedule (gossip.PackedFrontier): ⌈sources/64⌉ passes replace
// the per-source loop, batches run in parallel across WithWorkers workers,
// and per-bit completion tracking recovers every source's exact round
// count. WithScalarScan forces the scalar per-source reference kernel,
// which produces byte-identical reports and errors.
//
// Note this deliberately measures a different schedule than the
// single-source AnalyzeBroadcast, which builds a per-source BFS-tree
// whispering schedule (one call per informed vertex per round): the
// whispering time upper-bounds b(G, v), while the flooding time here is
// exactly the eccentricity floor the Section 6 certification compares
// against — and, unlike per-source tree schedules, it is shareable across
// lanes. A source that exceeds the WithRoundBudget cap aborts the scan
// with ErrIncomplete; a source that cannot reach every vertex aborts it
// with ErrUnreachable (raising the budget cannot help).
//
// Networks carrying a generator can be scanned without the CSR lowering:
// the streaming kernels compute arcs on the fly and touch only O(n)
// frontier memory. The scan picks them automatically for implicit
// networks, for generator-backed networks above DefaultImplicitScanNodes,
// and when the CSR would not fit a WithMaxMemory cap; WithImplicitScan
// forces them. Reports and errors are byte-identical across all four
// kernels (CSR/generator × packed/scalar).
func AnalyzeBroadcastAll(ctx context.Context, net *Network, opts ...Option) (*BroadcastAllReport, error) {
	cfg := newConfig(opts)
	sources, explicit, err := scanSources(net, cfg.sources)
	if err != nil {
		return nil, err
	}
	useGen, err := pickScanKernel(net, len(sources), cfg)
	if err != nil {
		return nil, err
	}
	rep := &BroadcastAllReport{Network: net.Name, Rounds: make([]int, len(sources))}
	if explicit {
		rep.Sources = sources
	}
	switch {
	case useGen && cfg.scalarScan:
		fg := graph.NewFloodGen(net.Gen)
		err = scalarScan(ctx, net, func(fr *gossip.FrontierState) int { return fr.StepGen(fg) }, sources, rep.Rounds, cfg)
	case useGen:
		err = packedScanGen(ctx, net, sources, rep.Rounds, cfg)
	case cfg.scalarScan:
		round := net.G.LowerFlood().Arcs()
		err = scalarScan(ctx, net, func(fr *gossip.FrontierState) int { return fr.Step(round) }, sources, rep.Rounds, cfg)
	default:
		err = packedScan(ctx, net, net.G.LowerFlood(), sources, rep.Rounds, cfg)
	}
	if err != nil {
		return nil, err
	}
	rep.summarize(net, sources)
	return rep, nil
}

// pickScanKernel decides between the CSR kernels and the streaming
// generator kernels for one scan. Forcing (WithImplicitScan) wins, then
// necessity (an implicit network has nothing to lower), then the size
// heuristic, then the WithMaxMemory guard rail — which can demote a
// CSR-eligible scan to the generator path, or fail it with ErrMemoryBudget
// when no kernel fits the cap.
func pickScanKernel(net *Network, nsrc int, cfg config) (useGen bool, err error) {
	hasGen := net.Gen != nil
	switch {
	case cfg.implicitScan:
		if !hasGen {
			return false, fmt.Errorf("systolic: broadcast-all on %s: %w: WithImplicitScan needs a generator-backed network",
				net.Name, ErrBadParam)
		}
		useGen = true
	case net.Implicit():
		// Implicit networks always carry a generator (PlainImplicit and
		// ClassifiedImplicit are the only constructors of G == nil).
		useGen = true
	case hasGen && net.N() > DefaultImplicitScanNodes:
		useGen = true
	}
	if cfg.maxMemory > 0 {
		genBytes, csrBytes := scanFootprint(net, nsrc, cfg)
		need := csrBytes
		if useGen {
			need = genBytes
		} else if csrBytes > cfg.maxMemory && hasGen && genBytes <= cfg.maxMemory {
			// The CSR would blow the cap but the streaming kernel fits:
			// fall back instead of failing.
			useGen, need = true, genBytes
		}
		if need > cfg.maxMemory {
			return false, fmt.Errorf("systolic: broadcast-all on %s: %w (estimated working set ~%d bytes, cap %d)",
				net.Name, ErrMemoryBudget, need, cfg.maxMemory)
		}
	}
	return useGen, nil
}

// scanFootprint estimates the working bytes of the generator and CSR
// kernels for this scan: per-worker frontier state plus, for the CSR, the
// shared lowering (4-byte indptr per vertex, 4-byte source per arc). The
// estimates are deliberately coarse — they gate WithMaxMemory, they do not
// meter an allocator.
func scanFootprint(net *Network, nsrc int, cfg config) (genBytes, csrBytes int64) {
	n := int64(net.N())
	frontier := 16 * n // packed: two 8-byte knowledge words per vertex
	if cfg.scalarScan {
		frontier = n / 2 // two bitsets plus slack
	}
	workers := int64(cfg.workers)
	if batches := int64(nsrc+gossip.PackedLanes-1) / int64(gossip.PackedLanes); workers > batches {
		workers = batches
	}
	genBytes = workers * frontier
	csrBytes = workers*frontier + 4*(n+1)
	if net.G != nil {
		csrBytes += 4 * int64(net.G.M())
	}
	return genBytes, csrBytes
}

// scanSources resolves the scan's source list: every vertex when sources
// is nil, otherwise a validated copy of the subset (in caller order).
func scanSources(net *Network, sources []int) (list []int, explicit bool, err error) {
	n := net.N()
	if sources == nil {
		list = make([]int, n)
		for v := range list {
			list[v] = v
		}
		return list, false, nil
	}
	if len(sources) == 0 {
		return nil, false, fmt.Errorf("systolic: broadcast-all on %s: %w: empty source list (omit WithSources to scan every vertex)",
			net.Name, ErrBadParam)
	}
	list = make([]int, len(sources))
	seen := make(map[int]bool, len(sources))
	for i, s := range sources {
		if s < 0 || s >= n {
			return nil, false, fmt.Errorf("systolic: broadcast-all on %s: %w: source %d outside [0, %d)",
				net.Name, ErrBadParam, s, n)
		}
		if seen[s] {
			return nil, false, fmt.Errorf("systolic: broadcast-all on %s: %w: duplicate source %d",
				net.Name, ErrBadParam, s)
		}
		seen[s] = true
		list[i] = s
	}
	return list, true, nil
}

// summarize fills the extremes, the eccentricity statistics and the
// per-source certification floor from the measured rounds — one pass over
// the per-source scan results. Ties keep the earliest scanned source, so
// reports are independent of the kernel and worker count.
func (r *BroadcastAllReport) summarize(net *Network, sources []int) {
	c, lb := broadcastBoundEcc(net, 0)
	bound := &r.boundStore
	*bound = BroadcastBound{Source: -1, C: c, CBound: lb, Applicable: true,
		ScannedSources: len(r.Rounds), MinRounds: r.Rounds[0], MaxRounds: r.Rounds[0]}
	r.Best, r.Worst = r.Rounds[0], r.Rounds[0]
	r.BestSource, r.WorstSource = sources[0], sources[0]
	sum := 0
	for i, rounds := range r.Rounds {
		sum += rounds
		if rounds > r.Worst {
			r.Worst, r.WorstSource = rounds, sources[i]
		}
		if rounds < r.Best {
			r.Best, r.BestSource = rounds, sources[i]
		}
		if rounds < lb {
			if bound.Violations == 0 {
				src := sources[i]
				bound.ViolatingSource = &src
			}
			bound.Violations++
		}
	}
	bound.MinRounds, bound.MaxRounds = r.Best, r.Worst
	bound.Respected = bound.Violations == 0
	r.Bound = bound
	r.MeanRounds = float64(sum) / float64(len(r.Rounds))
	counts := make([]int, r.Worst+1)
	for _, rounds := range r.Rounds {
		counts[rounds]++
	}
	for rounds, count := range counts {
		if count > 0 {
			r.Histogram = append(r.Histogram, RoundsBucket{Rounds: rounds, Count: count})
		}
	}
}

// The scan error constructors are shared by both kernels, so the packed
// engine is pinned error-equal — not just errors.Is-equal — to the scalar
// reference.

func errScanCtx(net *Network, err error) error {
	return fmt.Errorf("systolic: broadcast-all on %s: %w", net.Name, err)
}

func errScanIncomplete(net *Network, source, budget int) error {
	return fmt.Errorf("systolic: broadcast-all on %s from %d: %w (budget %d)",
		net.Name, source, ErrIncomplete, budget)
}

func errScanUnreachable(net *Network, source, rounds int) error {
	// Raising the budget cannot help a stalled frontier, so this is
	// deliberately not ErrIncomplete.
	return fmt.Errorf("%w: broadcast-all on %s from source %d (frontier stalled after %d rounds)",
		ErrUnreachable, net.Name, source, rounds)
}

// scalarScan is the per-source reference kernel: one 1-bit frontier,
// reset in place per source, stepped over the flooding round. It defines
// the scan's semantics; the packed kernel must match it byte for byte.
// The step closure hides the arc representation — walking the lowered
// round or streaming a generator — so both produce identical reports.
func scalarScan(ctx context.Context, net *Network, step func(*gossip.FrontierState) int, sources, rounds []int, cfg config) error {
	n := net.N()
	fr := gossip.NewFrontierState(n, 0)
	so, _ := cfg.observer.(ScanObserver)
	batchCols := 0 // informed columns of the current batch's finished lanes
	for i, src := range sources {
		if err := ctx.Err(); err != nil {
			return errScanCtx(net, err)
		}
		batch, lane := i/gossip.PackedLanes, i%gossip.PackedLanes
		if lane == 0 {
			batchCols = 0
		}
		lanes := len(sources) - batch*gossip.PackedLanes
		if lanes > gossip.PackedLanes {
			lanes = gossip.PackedLanes
		}
		fr.Reset(src)
		r := 0
		for !fr.Complete() {
			if r >= cfg.budget {
				return errScanIncomplete(net, src, cfg.budget)
			}
			if step(fr) == 0 {
				return errScanUnreachable(net, src, r)
			}
			r++
			if cfg.observer != nil {
				// Untouched lanes contribute their informed source; the
				// column total matches the packed kernel's when the batch
				// finishes.
				cols := batchCols + fr.InformedCount() + (lanes - lane - 1)
				if so != nil {
					so.ScanRound(batch, r, cols, lanes*n)
				} else {
					cfg.observer.Round(r, cols, lanes*n)
				}
			}
		}
		rounds[i] = r
		batchCols += fr.InformedCount()
	}
	return nil
}

// packedScan is the bit-parallel kernel: ⌈sources/64⌉ batches, each
// stepped through the lowered flooding schedule with 64 sources per pass,
// sharded across the worker pool (batches are independent, so reports are
// byte-identical for every worker count).
func packedScan(ctx context.Context, net *Network, flood *graph.FloodCSR, sources, rounds []int, cfg config) error {
	step := func(pf *gossip.PackedFrontier) (uint64, uint64, int) { return pf.StepFlood(flood) }
	return packedBatches(ctx, net, func(int) packedStep { return step }, sources, rounds, cfg)
}

// packedScanGen is the streaming counterpart of packedScan: the same batch
// bookkeeping with arcs computed on the fly from the network's generator.
// Multi-batch scans parallelize across batches exactly like packedScan,
// each worker owning a fixed FloodGen scratch; a single-batch scan on a
// large network — the shape of huge implicit scans, where all 64 lanes fit
// one word — instead shards each step by vertex range across the pool
// (StepFloodGenRange over disjoint ranges, folded, then one CommitStep).
func packedScanGen(ctx context.Context, net *Network, sources, rounds []int, cfg config) error {
	batches := (len(sources) + gossip.PackedLanes - 1) / gossip.PackedLanes
	if batches == 1 && cfg.workers > 1 && net.N() >= cfg.shardThreshold {
		pf := gossip.NewPackedFrontier(net.N())
		return packedBatch(ctx, net, shardedGenStep(net.Gen, net.N(), cfg.workers), pf, sources, rounds, 0, cfg)
	}
	return packedBatches(ctx, net, func(int) packedStep {
		fg := graph.NewFloodGen(net.Gen)
		return func(pf *gossip.PackedFrontier) (uint64, uint64, int) { return pf.StepFloodGen(fg) }
	}, sources, rounds, cfg)
}

// packedStep advances a packed frontier one flooding round, whatever the
// arc representation, returning the kernel triple (complete, changed,
// informed) masked to the batch's active lanes.
type packedStep func(*gossip.PackedFrontier) (uint64, uint64, int)

// shardedGenStep builds a packedStep that splits [0, n) into chunk-aligned
// vertex ranges, steps them concurrently — one FloodGen scratch per shard,
// ranges disjoint so the contract of StepFloodGenRange holds — folds the
// raw shard triples and commits the round once.
func shardedGenStep(gen ArcSource, n, workers int) packedStep {
	chunks := (n + graph.GenChunkVerts - 1) / graph.GenChunkVerts
	shards := workers
	if shards > chunks {
		shards = chunks
	}
	cuts := make([]int, shards+1)
	for i := 1; i < shards; i++ {
		cuts[i] = chunks * i / shards * graph.GenChunkVerts
	}
	cuts[shards] = n
	fgs := make([]*graph.FloodGen, shards)
	for i := range fgs {
		fgs[i] = graph.NewFloodGen(gen)
	}
	type shardRes struct {
		and, changed uint64
		informed     int
		_            [5]uint64 // keep shard results off each other's cache line
	}
	results := make([]shardRes, shards)
	return func(pf *gossip.PackedFrontier) (uint64, uint64, int) {
		var wg sync.WaitGroup
		for i := 0; i < shards; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				and, changed, informed := pf.StepFloodGenRange(fgs[i], cuts[i], cuts[i+1])
				results[i] = shardRes{and: and, changed: changed, informed: informed}
			}(i)
		}
		wg.Wait()
		and, changed, informed := ^uint64(0), uint64(0), 0
		for i := range results {
			and &= results[i].and
			changed |= results[i].changed
			informed += results[i].informed
		}
		pf.CommitStep()
		full := pf.Full()
		return and & full, changed & full, informed
	}
}

// packedBatches drives the batch pool shared by the CSR and generator
// packed kernels: batches are independent, claimed in scan order, and each
// worker builds its step (and any scratch it closes over) once. Reports
// are byte-identical for every worker count.
func packedBatches(ctx context.Context, net *Network, mkStep func(worker int) packedStep, sources, rounds []int, cfg config) error {
	batches := (len(sources) + gossip.PackedLanes - 1) / gossip.PackedLanes
	workers := cfg.workers
	if workers > batches {
		workers = batches
	}
	if workers <= 1 {
		pf := gossip.NewPackedFrontier(net.N())
		step := mkStep(0)
		for b := 0; b < batches; b++ {
			if err := packedBatch(ctx, net, step, pf, sources, rounds, b, cfg); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, batches)
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pf := gossip.NewPackedFrontier(net.N())
			step := mkStep(w)
			for {
				b := int(next.Add(1)) - 1
				if b >= batches {
					return
				}
				// Batches are claimed in order, so skipping the tail after
				// a failure can never skip a batch before the failing one:
				// the error that surfaces is still the scan-order first.
				if failed.Load() != 0 {
					return
				}
				if errs[b] = packedBatch(ctx, net, step, pf, sources, rounds, b, cfg); errs[b] != nil {
					failed.Store(1)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// packedBatch steps one batch of up to 64 sources to per-lane completion,
// stall, or the round budget, reproducing the scalar kernel's per-source
// outcomes exactly: a lane completing within the budget records its round,
// and the first failing lane (in scan order) aborts with the same error
// the scalar scan would have produced for that source.
func packedBatch(ctx context.Context, net *Network, step packedStep, pf *gossip.PackedFrontier, sources, rounds []int, b int, cfg config) error {
	n := net.N()
	lo := b * gossip.PackedLanes
	hi := lo + gossip.PackedLanes
	if hi > len(sources) {
		hi = len(sources)
	}
	batch := sources[lo:hi]
	if n == 1 {
		// Already complete at round 0; the step loop only observes
		// completion after a round.
		for i := range batch {
			rounds[lo+i] = 0
		}
		return nil
	}
	pf.Reset(batch)
	so, _ := cfg.observer.(ScanObserver)
	var done, stalled uint64
	var stallRound [gossip.PackedLanes]int
	remaining := pf.Full()
	for r := 1; remaining != 0 && r <= cfg.budget; r++ {
		if err := ctx.Err(); err != nil {
			return errScanCtx(net, err)
		}
		complete, changed, informed := step(pf)
		for m := complete &^ done; m != 0; m &= m - 1 {
			rounds[lo+bits.TrailingZeros64(m)] = r
		}
		done |= complete
		newlyStalled := remaining &^ (changed | complete)
		for m := newlyStalled; m != 0; m &= m - 1 {
			// The stalling step gained nothing, so the scalar kernel
			// reports one fewer productive round.
			stallRound[bits.TrailingZeros64(m)] = r - 1
		}
		stalled |= newlyStalled
		remaining &^= complete | newlyStalled
		if cfg.observer != nil {
			if so != nil {
				so.ScanRound(b, r, informed, pf.Lanes()*n)
			} else {
				cfg.observer.Round(r, informed, pf.Lanes()*n)
			}
		}
	}
	for i := range batch {
		bit := uint64(1) << i
		switch {
		case done&bit != 0:
		case stalled&bit != 0:
			return errScanUnreachable(net, batch[i], stallRound[i])
		default:
			return errScanIncomplete(net, batch[i], cfg.budget)
		}
	}
	return nil
}

// String renders the report.
func (r *BroadcastAllReport) String() string {
	return fmt.Sprintf("%s: b(G) = %d rounds (worst source %d, best %d from %d, mean %.2f over %d sources)",
		r.Network, r.Worst, r.WorstSource, r.Best, r.BestSource, r.MeanRounds, len(r.Rounds))
}
