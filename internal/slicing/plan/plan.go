// Package plan is the cost-based query planner: given a query's shape
// (single, batch, or explain), the set of available backends, and the
// live workload statistics, it chooses which backend answers. The
// planner only ever changes cost, never answers — every backend
// computes the same slice (the differential matrix proves it), so the
// decision is purely a latency bet.
//
// Costs start from a static model seeded with recording features
// (trace length, segment count, IR size) and are refined online: once a
// backend has enough uncached slices behind it (stats.ObserveCost), its
// EWMA per-criterion cost progressively replaces the static estimate.
// Decisions are deterministic — the same features, shape, availability,
// and statistics always produce the same Decision.
package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"dynslice/internal/telemetry/stats"
)

// Backend names, matching the names the façade reports to the query
// log and stats recorder.
const (
	FP      = "FP"
	OPT     = "OPT"
	LP      = "LP"
	Reexec  = "reexec"
	Forward = "forward"
)

// Query shape kinds.
const (
	KindSlice   = "slice"
	KindBatch   = "batch"
	KindExplain = "explain"
)

// Features are static facts about the recording, seeded once after the
// profile run.
type Features struct {
	TraceBlocks int64 // block executions in the recorded run
	TraceSteps  int64 // interpreter steps in the recorded run
	Segments    int   // summary segments in the index
	IRStmts     int   // statements in the lowered program
}

// Shape describes one query: its kind and, for batches, how many
// criteria arrive together.
type Shape struct {
	Kind  string
	Batch int
}

// Availability says which backends can answer right now, and whether
// the graph backends are already built ("warm") or would have to pay
// construction first.
type Availability struct {
	FP, OPT, LP, Reexec, Forward bool
	FPWarm, OPTWarm              bool
}

// Decision is the planner's answer: the backend to try first, the
// remaining candidates cheapest-first (the fallback ladder), the cost
// estimates behind the choice, and a human-readable reason.
type Decision struct {
	Backend  string
	Reason   string
	Fallback []string
	CostMs   map[string]float64
}

// Ladder returns the full attempt order — the chosen backend followed
// by the fallback candidates cheapest-first (nil when no backend can
// answer). This is exactly the sequence the engine's dispatch walks and
// a qtrace span tree renders, one attempt span per rung.
func (d Decision) Ladder() []string {
	if d.Backend == "" {
		return nil
	}
	return append([]string{d.Backend}, d.Fallback...)
}

// Planner carries the seeded features. Decisions themselves are pure
// (see Decide); the mutex only guards the seed.
type Planner struct {
	mu sync.Mutex
	f  Features
}

// New returns an unseeded planner (zero features: the static model
// degenerates to its per-query constants, still deterministic).
func New() *Planner { return &Planner{} }

// Seed installs the recording's static features.
func (p *Planner) Seed(f Features) {
	p.mu.Lock()
	p.f = f
	p.mu.Unlock()
}

// Features returns the seeded features.
func (p *Planner) Features() Features {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.f
}

// Decide plans one query with the planner's seeded features.
func (p *Planner) Decide(shape Shape, av Availability, snap *stats.Snapshot) Decision {
	return Decide(p.Features(), shape, av, snap)
}

// Static cost constants (nanoseconds per unit). These seed the model
// before any queries have been observed; they encode the backends'
// asymptotics, not absolute truth — online feedback overrides them as
// evidence accumulates.
const (
	buildNsPerBlock  = 400.0 // graph construction per trace block (decode + label + insert)
	lpScanNsPerBlock = 90.0  // LP segment decode per block scanned
	rxExecNsPerBlock = 80.0  // reexec interpreter resume per block regenerated
	lpScanFraction   = 0.50  // share of the trace a demand scan touches after skipping
	rxScanFraction   = 0.45  // reexec skips the same segments and never touches disk
	queryNsPerStmt   = 50.0  // per-criterion graph/traversal work, proportional to IR size
	optQueryFactor   = 0.80  // OPT's compacted graph answers a bit faster than FP
	optBuildFactor   = 1.10  // ...but costs a bit more to build (label inference)
	forwardLookupMs  = 0.01  // forward slicing is a precomputed set lookup
	chunkCriteria    = 64.0  // LP/reexec resolve up to 64 criteria per scan
)

// observeAfter is the evidence threshold: below this many cost samples
// (uncached slice and batch calls) a backend's EWMA carries no weight.
const observeAfter = 3

// fullTrustAt is where observed EWMA fully replaces the static model.
const fullTrustAt = 20

// staticCostMs estimates one query-shape's latency on a backend from
// the recording features alone.
func staticCostMs(f Features, shape Shape, backend string, av Availability) float64 {
	n := float64(shape.Batch)
	if n < 1 {
		n = 1
	}
	queryMs := queryNsPerStmt * float64(f.IRStmts) / 1e6
	buildMs := buildNsPerBlock * float64(f.TraceBlocks) / 1e6
	chunks := float64(int((n + chunkCriteria - 1) / chunkCriteria))
	switch backend {
	case FP:
		c := n * queryMs
		if !av.FPWarm {
			c += buildMs
		}
		return c
	case OPT:
		c := n * queryMs * optQueryFactor
		if !av.OPTWarm {
			c += buildMs * optBuildFactor
		}
		return c
	case LP:
		scan := lpScanNsPerBlock * lpScanFraction * float64(f.TraceBlocks) / 1e6
		return chunks*scan + n*queryMs
	case Reexec:
		scan := rxExecNsPerBlock * rxScanFraction * float64(f.TraceBlocks) / 1e6
		return chunks*scan + n*queryMs
	case Forward:
		return n * forwardLookupMs
	}
	return 0
}

// calibration estimates how much slower reality is than the static
// model: for every backend with enough evidence, the ratio of its
// observed per-shape cost to its static estimate, combined as a
// geometric mean and clamped to >= 1. Unobserved backends' static
// estimates are scaled by it, putting them on the machine's measured
// scale. Without this, one observed backend's honest EWMA loses to
// every untried backend's optimistic seed and the planner thrashes
// through the whole ladder (the regret gate in the planner bench
// catches exactly that). The clamp keeps evidence from ever making
// untried backends look FASTER than their seeds — a fast machine is no
// reason to speculate.
func calibration(f Features, shape Shape, av Availability, snap *stats.Snapshot) float64 {
	if snap == nil {
		return 1
	}
	n := float64(shape.Batch)
	if n < 1 {
		n = 1
	}
	logSum, seen := 0.0, 0
	for _, b := range []string{FP, OPT, LP, Reexec, Forward} {
		bs, ok := snap.Backends[b]
		if !ok || bs.Samples < observeAfter || bs.EWMAMs <= 0 {
			continue
		}
		static := staticCostMs(f, shape, b, av)
		if static <= 0 {
			continue
		}
		logSum += math.Log(bs.EWMAMs * n / static)
		seen++
	}
	if seen == 0 {
		return 1
	}
	c := math.Exp(logSum / float64(seen))
	if c < 1 {
		c = 1
	}
	return c
}

// costMs blends the calibrated static estimate with the backend's
// observed EWMA cost. Trust ramps linearly with the sample count; a
// backend that has only ever errored is effectively disqualified.
func costMs(f Features, shape Shape, backend string, av Availability, snap *stats.Snapshot, calib float64) float64 {
	static := staticCostMs(f, shape, backend, av) * calib
	if snap == nil {
		return static
	}
	bs, ok := snap.Backends[backend]
	if !ok {
		return static
	}
	if bs.Queries > 0 && bs.Errors >= bs.Queries {
		return static * 1e6 // every attempt failed: last resort only
	}
	if bs.Samples < observeAfter {
		return static
	}
	n := float64(shape.Batch)
	if n < 1 {
		n = 1
	}
	w := float64(bs.Samples) / fullTrustAt
	if w > 1 {
		w = 1
	}
	return (1-w)*static + w*bs.EWMAMs*n
}

// candidates lists the backends able to answer shape, in canonical
// order (the deterministic tiebreak).
func candidates(shape Shape, av Availability) []string {
	var out []string
	add := func(name string, ok bool) {
		if ok {
			out = append(out, name)
		}
	}
	add(FP, av.FP)
	add(OPT, av.OPT)
	add(LP, av.LP)
	add(Reexec, av.Reexec)
	// Forward slicing cannot attribute edges, so explain queries never
	// plan onto it.
	add(Forward, av.Forward && shape.Kind != KindExplain)
	return out
}

// Decide is the pure planning function: deterministic in its inputs,
// no hidden state. It never errors — with nothing available it returns
// an empty Decision and the caller reports unavailability.
func Decide(f Features, shape Shape, av Availability, snap *stats.Snapshot) Decision {
	cands := candidates(shape, av)
	if len(cands) == 0 {
		return Decision{Reason: "no backend available"}
	}
	calib := calibration(f, shape, av, snap)
	costs := make(map[string]float64, len(cands))
	for _, b := range cands {
		costs[b] = costMs(f, shape, b, av, snap, calib)
	}
	order := append([]string(nil), cands...)
	sort.SliceStable(order, func(i, j int) bool {
		if costs[order[i]] != costs[order[j]] {
			return costs[order[i]] < costs[order[j]]
		}
		return false // stable: canonical order breaks ties
	})
	best := order[0]
	reason := fmt.Sprintf("%s est %.3fms", best, costs[best])
	if len(order) > 1 {
		reason += fmt.Sprintf(" (next %s %.3fms)", order[1], costs[order[1]])
	}
	if snap != nil {
		if bs, ok := snap.Backends[best]; ok && bs.Samples >= observeAfter {
			reason += fmt.Sprintf(", ewma %.3fms over %d samples", bs.EWMAMs, bs.Samples)
		} else {
			reason += ", static seed"
		}
	} else {
		reason += ", static seed"
	}
	return Decision{
		Backend:  best,
		Reason:   reason,
		Fallback: order[1:],
		CostMs:   costs,
	}
}

// dumpShapes are the canonical shapes Dump tabulates.
var dumpShapes = []Shape{
	{Kind: KindSlice, Batch: 1},
	{Kind: KindBatch, Batch: 16},
	{Kind: KindBatch, Batch: 256},
	{Kind: KindExplain, Batch: 1},
}

// Dump renders the full plan table for the given state — every
// canonical shape's costs and choice — for inspection and golden tests.
func Dump(f Features, av Availability, snap *stats.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "features: blocks=%d steps=%d segments=%d stmts=%d\n",
		f.TraceBlocks, f.TraceSteps, f.Segments, f.IRStmts)
	fmt.Fprintf(&b, "%-12s %-10s %12s %12s %12s %12s %12s\n",
		"shape", "choice", FP, OPT, LP, Reexec, Forward)
	for _, sh := range dumpShapes {
		d := Decide(f, sh, av, snap)
		cell := func(name string) string {
			c, ok := d.CostMs[name]
			if !ok {
				return "-"
			}
			return fmt.Sprintf("%.3f", c)
		}
		fmt.Fprintf(&b, "%-12s %-10s %12s %12s %12s %12s %12s\n",
			fmt.Sprintf("%s/%d", sh.Kind, sh.Batch), d.Backend,
			cell(FP), cell(OPT), cell(LP), cell(Reexec), cell(Forward))
	}
	return b.String()
}
