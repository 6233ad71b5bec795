package plan

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynslice/internal/telemetry/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// bigTrace is a recording whose graph construction is expensive enough
// that demand-driven backends matter.
var bigTrace = Features{TraceBlocks: 2_000_000, TraceSteps: 9_000_000, Segments: 500, IRStmts: 400}

func snap(backends map[string]stats.BackendStats) *stats.Snapshot {
	return &stats.Snapshot{Backends: backends}
}

// TestDecideFixtures pins the planner's behavior on the workload
// archetypes the cost model is built around.
func TestDecideFixtures(t *testing.T) {
	coldAv := Availability{FP: true, OPT: true, LP: true, Reexec: true}
	warmAv := Availability{FP: true, OPT: true, LP: true, Reexec: true, FPWarm: true, OPTWarm: true}
	cases := []struct {
		name  string
		f     Features
		shape Shape
		av    Availability
		snap  *stats.Snapshot
		want  string
	}{
		// Cold start, one rare query: building any graph costs ~800ms of
		// decode; re-execution answers from checkpoints without touching
		// disk and undercuts LP's decode loop.
		{"cold-single", bigTrace, Shape{KindSlice, 1}, coldAv, nil, Reexec},
		// Same query once the graphs exist: the compacted graph answers
		// fastest and construction is sunk cost.
		{"warm-single", bigTrace, Shape{KindSlice, 1}, warmAv, nil, OPT},
		// Statistics dominate the static seed: LP has proven itself fast
		// over many queries, reexec hasn't been tried.
		{"lp-dominant", bigTrace, Shape{KindSlice, 1}, coldAv,
			snap(map[string]stats.BackendStats{
				LP: {Queries: 40, Samples: 40, EWMAMs: 0.2},
			}), LP},
		// Rare-query archetype with a little history: reexec observed
		// cheap, graphs still cold — keep re-executing.
		{"reexec-rare", bigTrace, Shape{KindSlice, 1}, coldAv,
			snap(map[string]stats.BackendStats{
				Reexec: {Queries: 5, Samples: 5, EWMAMs: 8},
				LP:     {Queries: 5, Samples: 5, EWMAMs: 60},
			}), Reexec},
		// A huge cold batch amortizes graph construction across thousands
		// of criteria, while scan backends pay per 64-criterion chunk.
		{"cold-huge-batch", bigTrace, Shape{KindBatch, 2000}, coldAv, nil, FP},
		// Forward slicing, when precomputed, wins plain slices outright...
		{"forward-single", bigTrace, Shape{KindSlice, 1},
			Availability{LP: true, Reexec: true, Forward: true}, nil, Forward},
		// ...but can never answer an explain query.
		{"forward-no-explain", bigTrace, Shape{KindExplain, 1},
			Availability{LP: true, Reexec: true, Forward: true}, nil, Reexec},
		// A backend that only ever errors is disqualified until last.
		{"all-errors-disqualify", bigTrace, Shape{KindSlice, 1}, coldAv,
			snap(map[string]stats.BackendStats{
				Reexec: {Queries: 4, Errors: 4},
			}), LP},
		// Nothing available: empty decision, caller reports it.
		{"nothing", bigTrace, Shape{KindSlice, 1}, Availability{}, nil, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := Decide(c.f, c.shape, c.av, c.snap)
			if d.Backend != c.want {
				t.Fatalf("chose %q (%s), want %q\ncosts: %v", d.Backend, d.Reason, c.want, d.CostMs)
			}
			if c.want != "" && len(d.Fallback)+1 != len(d.CostMs) {
				t.Fatalf("fallback ladder has %d rungs for %d candidates", len(d.Fallback), len(d.CostMs))
			}
			for _, fb := range d.Fallback {
				if fb == d.Backend {
					t.Fatalf("chosen backend %q repeated in fallback %v", d.Backend, d.Fallback)
				}
			}
		})
	}
}

// TestDecideNeverPicksUnavailable sweeps random availability masks and
// checks the choice and every fallback rung are available backends.
func TestDecideNeverPicksUnavailable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := []string{KindSlice, KindBatch, KindExplain}
	for i := 0; i < 500; i++ {
		av := Availability{
			FP: rng.Intn(2) == 0, OPT: rng.Intn(2) == 0, LP: rng.Intn(2) == 0,
			Reexec: rng.Intn(2) == 0, Forward: rng.Intn(2) == 0,
			FPWarm: rng.Intn(2) == 0, OPTWarm: rng.Intn(2) == 0,
		}
		shape := Shape{Kind: kinds[rng.Intn(3)], Batch: 1 + rng.Intn(300)}
		d := Decide(bigTrace, shape, av, nil)
		ok := map[string]bool{FP: av.FP, OPT: av.OPT, LP: av.LP, Reexec: av.Reexec,
			Forward: av.Forward && shape.Kind != KindExplain}
		for _, b := range append([]string{d.Backend}, d.Fallback...) {
			if b == "" {
				continue
			}
			if !ok[b] {
				t.Fatalf("iteration %d: planned unavailable backend %q (av %+v shape %+v)", i, b, av, shape)
			}
		}
	}
}

// TestDecideDeterministic: identical inputs must yield identical
// decisions, bit for bit, across many trials (map iteration order must
// not leak into the result).
func TestDecideDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kinds := []string{KindSlice, KindBatch, KindExplain}
	backends := []string{FP, OPT, LP, Reexec, Forward}
	for i := 0; i < 200; i++ {
		f := Features{
			TraceBlocks: rng.Int63n(1 << 24), TraceSteps: rng.Int63n(1 << 26),
			Segments: rng.Intn(1000), IRStmts: rng.Intn(5000),
		}
		shape := Shape{Kind: kinds[rng.Intn(3)], Batch: 1 + rng.Intn(500)}
		av := Availability{FP: true, OPT: true, LP: rng.Intn(2) == 0,
			Reexec: rng.Intn(2) == 0, Forward: rng.Intn(2) == 0,
			FPWarm: rng.Intn(2) == 0, OPTWarm: rng.Intn(2) == 0}
		bs := map[string]stats.BackendStats{}
		for _, b := range backends {
			if rng.Intn(2) == 0 {
				q := rng.Int63n(50)
				errs := rng.Int63n(q + 1)
				bs[b] = stats.BackendStats{Queries: q, Errors: errs, Samples: q - errs,
					EWMAMs: rng.Float64() * 100}
			}
		}
		first := Decide(f, shape, av, snap(bs))
		for trial := 0; trial < 5; trial++ {
			// Rebuild the map each trial so iteration order varies.
			bs2 := map[string]stats.BackendStats{}
			for k, v := range bs {
				bs2[k] = v
			}
			again := Decide(f, shape, av, snap(bs2))
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("iteration %d trial %d: decisions diverge\n%+v\n%+v", i, trial, first, again)
			}
		}
	}
}

// TestPlannerSeed: Decide through a Planner uses the seeded features.
func TestPlannerSeed(t *testing.T) {
	p := New()
	p.Seed(bigTrace)
	if p.Features() != bigTrace {
		t.Fatalf("features = %+v", p.Features())
	}
	d := p.Decide(Shape{KindSlice, 1}, Availability{FP: true, Reexec: true}, nil)
	if d.Backend != Reexec {
		t.Fatalf("seeded planner chose %q: %s", d.Backend, d.Reason)
	}
}

// TestDumpGolden pins the full plan table; regenerate with -update.
func TestDumpGolden(t *testing.T) {
	got := Dump(bigTrace,
		Availability{FP: true, OPT: true, LP: true, Reexec: true, Forward: true},
		snap(map[string]stats.BackendStats{
			LP:     {Queries: 25, Errors: 1, Samples: 24, EWMAMs: 4.25},
			Reexec: {Queries: 10, Samples: 10, EWMAMs: 12.5},
		}))
	golden := filepath.Join("testdata", "dump.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("plan dump drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
