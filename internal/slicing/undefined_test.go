package slicing_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynslice/internal/compile"
	"dynslice/internal/interp"
	"dynslice/internal/profile"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/explain"
	"dynslice/internal/slicing/forward"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/lp"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/slicing/oracle"
	"dynslice/internal/slicing/reexec"
	"dynslice/internal/telemetry/querylog"
	"dynslice/internal/trace"
)

// TestUndefinedAddrClassifies: every backend's "address N was never
// defined" error — single, batched and observed — wraps
// slicing.ErrUndefined, keeps its message, and so classifies as
// bad_criterion by sentinel rather than by wording.
func TestUndefinedAddrClassifies(t *testing.T) {
	tc := differentialPrograms["loops_and_branches"]
	p, err := compile.Source(tc.src)
	if err != nil {
		t.Fatal(err)
	}
	col := profile.NewCollector(p)
	if _, err := interp.Run(p, interp.Options{Input: tc.input, Sink: col}); err != nil {
		t.Fatal(err)
	}
	fpg := fp.NewGraph(p)
	optg := opt.NewGraph(p, opt.Full(), col.HotPaths(1, 0), col.Cuts())
	fwd := forward.New(p)
	ora := oracle.New(p)
	tracePath := filepath.Join(t.TempDir(), "trace.bin")
	tf, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tw := trace.NewWriter(p, tf, 64)
	res, err := interp.Run(p, interp.Options{Input: tc.input, Sink: trace.Multi{fpg, optg, fwd, ora, tw}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	backends := map[string]slicing.Slicer{
		"fp":      fpg,
		"opt":     optg,
		"lp":      lp.New(p, tracePath, tw.Segments()),
		"reexec":  reexec.New(p, tw.Segments(), reexec.Options{Input: tc.input, TotalBlocks: res.BlockExecs}),
		"forward": fwd,
		"oracle":  ora,
	}
	const bogus = int64(1) << 40
	c := slicing.AddrCriterion(bogus)
	for name, s := range backends {
		check := func(call string, err error) {
			t.Helper()
			if !errors.Is(err, slicing.ErrUndefined) {
				t.Errorf("%s %s: error %v does not wrap ErrUndefined", name, call, err)
				return
			}
			if !strings.HasSuffix(err.Error(), "address 1099511627776 was never defined") {
				t.Errorf("%s %s: message changed: %q", name, call, err)
			}
			if got := querylog.Classify(err); got != "bad_criterion" {
				t.Errorf("%s %s: classified %q, want bad_criterion", name, call, got)
			}
		}
		_, _, err := s.Slice(c)
		check("Slice", err)
		if m, ok := s.(slicing.MultiSlicer); ok {
			_, _, err := m.SliceAll([]slicing.Criterion{c})
			check("SliceAll", err)
		}
		if x, ok := s.(slicing.Explainer); ok {
			_, _, err := x.SliceObserved(c, explain.NewRecorder())
			check("SliceObserved", err)
		}
	}
}
