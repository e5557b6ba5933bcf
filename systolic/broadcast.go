package systolic

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/par"
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
// schedule serves all sources — so the scan packs up to 64 sources into
// the 64 bits of each knowledge word and steps them simultaneously
// (gossip.PackedFrontier): ⌈sources/64⌉ passes replace the per-source
// loop, batches run in parallel across WithWorkers workers, and per-bit
// completion tracking recovers every source's exact round count.
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
// The scan walks one arc source. A materialized network is flooded over
// the destination-major in-neighbor CSR of its digraph; an implicit
// network over its generator, which computes arcs on the fly and touches
// only O(n) frontier memory. A materialized network carrying a generator
// is scanned through the generator when the CSR would not fit a
// WithMaxMemory cap. Reports and errors are byte-identical whichever source
// the scan walks.
func AnalyzeBroadcastAll(ctx context.Context, net *Network, opts ...Option) (*BroadcastAllReport, error) {
	cfg := newConfig(opts)
	sources, explicit, err := scanSources(net, cfg.sources)
	if err != nil {
		return nil, err
	}
	src, err := pickScanSource(net, len(sources), cfg)
	if err != nil {
		return nil, err
	}
	rep := &BroadcastAllReport{Network: net.Name, Rounds: make([]int, len(sources))}
	if explicit {
		rep.Sources = sources
	}
	sc := floodScan{net: net, src: src, op: "broadcast-all", sources: sources, rounds: rep.Rounds, cfg: cfg}
	if err := sc.run(ctx); err != nil {
		return nil, err
	}
	rep.summarize(net, sources)
	return rep, nil
}

// pickScanSource chooses the arc source one scan floods, by memory alone:
// the generator when the network is implicit (G == nil; PlainImplicit and
// ClassifiedImplicit attach one), otherwise the digraph's in-neighbor CSR.
// The WithMaxMemory guard rail demotes a scan whose CSR would exceed the
// cap to the generator when that fits, and fails it with ErrMemoryBudget
// when nothing does.
func pickScanSource(net *Network, nsrc int, cfg config) (ArcSource, error) {
	useGen := net.Implicit()
	if cfg.maxMemory > 0 {
		genBytes, csrBytes := scanFootprint(net, nsrc, cfg)
		need := csrBytes
		if useGen {
			need = genBytes
		} else if csrBytes > cfg.maxMemory && net.Gen != nil && genBytes <= cfg.maxMemory {
			useGen, need = true, genBytes
		}
		if need > cfg.maxMemory {
			return nil, fmt.Errorf("systolic: broadcast-all on %s: %w (estimated working set ~%d bytes, cap %d)",
				net.Name, ErrMemoryBudget, need, cfg.maxMemory)
		}
	}
	if useGen {
		return net.Gen, nil
	}
	return graph.NewDigraphSource(net.G), nil
}

// scanFootprint estimates the working bytes of a scan over the generator
// and over the digraph's CSR: per-worker packed frontier state (two 8-byte
// knowledge words per vertex and the 16-byte push-list entries of every
// PushDivisor-th vertex) plus, for the CSR, the shared lowering
// (4-byte indptr per vertex, 4-byte source per arc). The estimates are
// deliberately coarse — they gate WithMaxMemory, they do not meter an
// allocator.
func scanFootprint(net *Network, nsrc int, cfg config) (genBytes, csrBytes int64) {
	n := int64(net.N())
	batches := int64(nsrc+gossip.PackedLanes-1) / int64(gossip.PackedLanes)
	genBytes = min(int64(cfg.workers), batches) * 16 * (n + n/gossip.PushDivisor)
	csrBytes = genBytes + 4*(n+1)
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

// floodScan is one packed flooding scan: the sources to measure, in scan
// order, flooded over one arc source. rounds[i] receives the broadcast
// time from sources[i]; op names the entry point in errors, so
// AnalyzeBroadcastAll ("broadcast-all") and the implicit CertifyBroadcast
// ("certify broadcast") share the driver and keep their own messages.
type floodScan struct {
	net     *Network
	src     ArcSource
	op      string
	sources []int
	rounds  []int
	cfg     config
}

// The scan error constructors are shared with the scalar reference scan
// the tests hold the packed driver to, so the two are pinned error-equal,
// not just errors.Is-equal.

func (sc *floodScan) errCtx(err error) error {
	return fmt.Errorf("systolic: %s on %s: %w", sc.op, sc.net.Name, err)
}

func (sc *floodScan) errIncomplete(source int) error {
	return fmt.Errorf("systolic: %s on %s from %d: %w (budget %d)",
		sc.op, sc.net.Name, source, ErrIncomplete, sc.cfg.budget)
}

func (sc *floodScan) errUnreachable(source, rounds int) error {
	// Raising the budget cannot help a stalled frontier, so this is
	// deliberately not ErrIncomplete.
	return fmt.Errorf("%w: %s on %s from source %d (frontier stalled after %d rounds)",
		ErrUnreachable, sc.op, sc.net.Name, source, rounds)
}

// run floods the sources in ⌈sources/64⌉ batches. Batches are independent
// and claimed in scan order by up to WithWorkers workers on the worker
// runtime, each with its own frontier, so reports are byte-identical for
// every worker count. A single batch on a network past the shard threshold
// — the shape of huge implicit scans and of single-source certification —
// instead splits every round into vertex ranges across the workers.
func (sc *floodScan) run(ctx context.Context) error {
	n := sc.net.N()
	batches := (len(sc.sources) + gossip.PackedLanes - 1) / gossip.PackedLanes
	if batches == 1 && sc.cfg.workers > 1 && n >= DefaultShardThreshold {
		return sc.batch(ctx, newFloodStepper(sc.src, n, sc.cfg.workers), 0)
	}
	workers := min(sc.cfg.workers, batches)
	errs := make([]error, batches)
	steppers := make([]*floodStepper, workers)
	var next atomic.Int64
	var failed atomic.Bool
	par.Do(workers, workers, func(w int) {
		// Every claimed batch runs, and batches are claimed in scan order,
		// so when claiming stops after a failure every batch before the
		// failing one has run: the error that surfaces is the scan-order
		// first.
		for !failed.Load() {
			b := int(next.Add(1)) - 1
			if b >= batches {
				return
			}
			if steppers[w] == nil {
				steppers[w] = newFloodStepper(sc.src, n, 1)
			}
			if errs[b] = sc.batch(ctx, steppers[w], b); errs[b] != nil {
				failed.Store(true)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// batch steps batch b of up to 64 sources to per-lane completion, stall,
// or the round budget, reproducing the per-source outcomes of flooding
// each source alone: a lane completing within the budget records its
// round, and the first failing lane (in scan order) aborts with the error
// a one-source scan of it would have produced.
func (sc *floodScan) batch(ctx context.Context, st *floodStepper, b int) error {
	n := sc.net.N()
	lo := b * gossip.PackedLanes
	hi := min(lo+gossip.PackedLanes, len(sc.sources))
	batch := sc.sources[lo:hi]
	if n == 1 {
		// Already complete at round 0; the step loop only observes
		// completion after a round.
		clear(sc.rounds[lo:hi])
		return nil
	}
	pf := &st.pf
	st.reset(batch)
	obs := sc.cfg.observer
	so, _ := obs.(ScanObserver)
	var done, stalled uint64
	var stallRound [gossip.PackedLanes]int
	remaining := pf.Full()
	for r := 1; remaining != 0 && r <= sc.cfg.budget; r++ {
		if err := ctx.Err(); err != nil {
			return sc.errCtx(err)
		}
		complete, changed, informed := st.step()
		for m := complete &^ done; m != 0; m &= m - 1 {
			sc.rounds[lo+bits.TrailingZeros64(m)] = r
		}
		done |= complete
		newlyStalled := remaining &^ (changed | complete)
		for m := newlyStalled; m != 0; m &= m - 1 {
			// The stalling step gained nothing, so the lane's last
			// productive round is the one before.
			stallRound[bits.TrailingZeros64(m)] = r - 1
		}
		stalled |= newlyStalled
		remaining &^= complete | newlyStalled
		if obs != nil {
			if so != nil {
				so.ScanRound(b, r, informed, pf.Lanes()*n)
			} else {
				obs.Round(r, informed, pf.Lanes()*n)
			}
		}
	}
	for i := range batch {
		bit := uint64(1) << i
		switch {
		case done&bit != 0:
		case stalled&bit != 0:
			return sc.errUnreachable(batch[i], stallRound[i])
		default:
			return sc.errIncomplete(batch[i])
		}
	}
	return nil
}

// floodStepper steps one packed frontier over an arc source, choosing a
// direction each round. A pull round gathers into every vertex, split
// into chunk-aligned vertex ranges, one per shard, run on the calling
// goroutine and the worker runtime's free helpers; the fan-out is bound
// once, so a round allocates nothing. A push round scatters from the
// vertices the last round changed, on the calling goroutine
// (gossip.PushDivisor states the rule).
type floodStepper struct {
	pf       gossip.PackedFrontier
	shards   []floodShard
	fan      par.Group // runs the shards of a pull round
	done     uint64    // lanes complete after the last round
	informed int       // informed pairs after the last round
}

// floodShard is one vertex range of a pull round and its raw round
// results (masked only after the fold).
type floodShard struct {
	fg           graph.FloodGen
	lo, hi       int
	and, changed uint64
	informed     int
	_            [4]uint64 // keep shard results off each other's cache line
}

// newFloodStepper returns a stepper over src for an n-vertex network with
// up to shards vertex ranges (never more than there are chunks). The
// shards' arc scratch is one padded block, so no two shards write the
// same cache line.
func newFloodStepper(src ArcSource, n, shards int) *floodStepper {
	chunks := (n + graph.GenChunkVerts - 1) / graph.GenChunkVerts
	k := max(1, min(shards, chunks))
	st := &floodStepper{pf: *gossip.NewPackedFrontier(n), shards: make([]floodShard, k)}
	scratch := graph.ArcScratch(src, k)
	for i := range st.shards {
		sh := &st.shards[i]
		sh.fg = graph.ShardFloodGen(src, scratch, i)
		sh.lo = chunks * i / k * graph.GenChunkVerts
		sh.hi = min(chunks*(i+1)/k*graph.GenChunkVerts, n)
	}
	return st
}

// Task runs shard i of the current pull round.
func (st *floodStepper) Task(i int) {
	sh := &st.shards[i]
	sh.and, sh.changed, sh.informed = st.pf.StepFloodGenRange(&sh.fg, sh.lo, sh.hi)
}

// reset loads a batch; its first round pushes from the sources when they
// fit the push list.
func (st *floodStepper) reset(sources []int) {
	st.pf.Reset(sources)
	st.done, st.informed = 0, len(sources)
}

// step advances the frontier one flooding round, returning the kernel
// triple (complete, changed, informed) masked to the batch's active lanes.
// It pushes when the last round's changes are listed, and otherwise pulls
// and lists this round's changes if it added at most PushCap informed
// pairs (so changed at most PushCap vertices). Both directions compute the
// same words, so the triples do not depend on the choice.
//
//gossip:hotpath
func (st *floodStepper) step() (complete, changed uint64, informed int) {
	pf := &st.pf
	if pf.Listed() {
		var added int
		complete, changed, added = pf.StepFloodPush(&st.shards[0].fg, st.done)
		informed = st.informed + added
	} else {
		complete, changed, informed = st.pull()
		if informed-st.informed <= pf.PushCap() {
			pf.ListChanged()
		}
	}
	st.done, st.informed = complete, informed
	return complete, changed, informed
}

// pull runs one pull round across the shards.
//
//gossip:hotpath
func (st *floodStepper) pull() (complete, changed uint64, informed int) {
	st.fan.Run(st, len(st.shards), len(st.shards))
	and := ^uint64(0)
	for i := range st.shards {
		sh := &st.shards[i]
		and &= sh.and
		changed |= sh.changed
		informed += sh.informed
	}
	st.pf.CommitStep()
	full := st.pf.Full()
	return and & full, changed & full, informed
}

// String renders the report.
func (r *BroadcastAllReport) String() string {
	return fmt.Sprintf("%s: b(G) = %d rounds (worst source %d, best %d from %d, mean %.2f over %d sources)",
		r.Network, r.Worst, r.WorstSource, r.Best, r.BestSource, r.MeanRounds, len(r.Rounds))
}
