package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tiny returns a copy of a workload shrunk to run in well under a second.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.input = map[string][]int64{"130.li": {2}, "164.gzip": {60}}[w.program]
	c.track = 24
	c.setups = 2
	c.roundSingles = 4
	c.minSingles = 12
	return &c
}

func TestTamperedReferenceIsCaught(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s, err := setUp(tiny(t, w.name), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			// Give one criterion another criterion's statement set.
			pool := s.rec.Criteria()
			var victim int64
			found := false
			for _, a := range pool {
				for _, b := range pool {
					if !s.ref.sets[a].Equal(s.ref.sets[b]) {
						s.ref.sets[a], victim, found = s.ref.sets[b], a, true
						break
					}
				}
				if found {
					break
				}
			}
			if !found {
				t.Fatal("every criterion has the same slice; nothing to tamper with")
			}
			res, err := s.query(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			// The batches pass over the whole pool, so the victim is asked.
			if res.checks.failed == 0 {
				t.Fatalf("tampered reference for criterion %d went unnoticed in %d checks", victim, res.checks.attempted)
			}
			if out := report(endToEnd, res.metrics(), res.checks); out.Correct || out.Failed != res.checks.failed {
				t.Fatalf("result line %+v does not report the %d mismatches", out, res.checks.failed)
			}
		})
	}
}

func TestEndToEndReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runSession(tiny(t, w.name), 1, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.checks.failed != 0 {
				t.Fatalf("%d of %d slices differ from the reference", res.checks.failed, res.checks.attempted)
			}
			m := res.metrics()
			for _, d := range endToEnd {
				if v, ok := m[d.name]; !ok || !(v > 0) {
					t.Errorf("%s = %v, want a positive value", d.name, v)
				}
			}
		})
	}
}

// Two traced runs with the same seed give identical exact counts.
func TestTracedCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tw := tiny(t, w.name)
			dir := t.TempDir()
			var runs [2]*result
			for i := range runs {
				res, err := runTraced(tw, 3, dir, dir)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 {
					t.Fatalf("%d of %d slices differ from the reference", res.Failed, res.Attempted)
				}
				runs[i] = res
			}
			for _, d := range perLayer {
				a, ok := runs[0].Metrics[d.name]
				if !ok {
					t.Errorf("%s not reported", d.name)
					continue
				}
				if b := runs[1].Metrics[d.name]; d.exact && a != b {
					t.Errorf("%s: %v then %v", d.name, a.Value, b.Value)
				}
			}
		})
	}
}

// BENCHMARK.json names exactly the metrics and workloads the program
// reports, with the same units.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bf struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d entries, program reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program reports %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workloads[%d] = %s, program has %s", i, bf.Workloads[i].Name, w.name)
		}
	}
}
