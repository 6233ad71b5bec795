package slicer_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	slicer "dynslice"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/telemetry/querylog"
)

const facadeSrc = `
var out = 0;
var side = 0;

func helper(v) {
	side = side + 1;
	return v * 3;
}

func main() {
	var i = 0;
	while (i < 8) {
		out = out + helper(i);
		i = i + 1;
	}
	print(out);
}`

func record(t *testing.T, src string, input ...int64) *slicer.Recording {
	t.Helper()
	p, err := slicer.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Record(slicer.RunOptions{Input: input})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rec.Close)
	return rec
}

func TestFacadeEndToEnd(t *testing.T) {
	rec := record(t, facadeSrc)
	if len(rec.Output) != 1 || rec.Output[0] != 84 {
		t.Fatalf("output = %v, want [84]", rec.Output)
	}
	var ref *slicer.Slice
	for _, s := range []*slicer.Slicer{rec.OPT(), rec.FP(), rec.LP()} {
		sl, err := s.SliceVar("out")
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if sl.Stmts == 0 || len(sl.Lines) == 0 {
			t.Fatalf("%s: empty slice", s.Name())
		}
		if ref == nil {
			ref = sl
		} else if !sl.Raw().Equal(ref.Raw()) {
			t.Fatalf("%s disagrees with first slicer", s.Name())
		}
		// side is incremented by helper but never flows into out.
		if sl.HasLine(6) {
			t.Fatalf("%s: side-effect line must not be in slice of out", s.Name())
		}
	}
	st := rec.Stats()
	if st.OPTLabelPairs >= st.FPLabelPairs {
		t.Errorf("OPT labels (%d) not smaller than FP labels (%d)", st.OPTLabelPairs, st.FPLabelPairs)
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := slicer.Compile(`func nope() {}`); err == nil {
		t.Fatal("expected compile error for missing main")
	}
	rec := record(t, facadeSrc)
	if _, err := rec.OPT().SliceVar("nonexistent"); err == nil {
		t.Fatal("expected error for unknown global")
	}
	if _, err := rec.OPT().SliceAddr(1 << 50); err == nil {
		t.Fatal("expected error for undefined address")
	}
}

func TestFacadeCustomOptConfig(t *testing.T) {
	// A paper-strict configuration (no adaptive extension) must still
	// produce correct slices.
	cfg := opt.Stage(6)
	cfg.Shortcuts = true
	p, err := slicer.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Record(slicer.RunOptions{OptConfig: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	a, err := rec.OPT().SliceVar("out")
	if err != nil {
		t.Fatal(err)
	}
	b, err := rec.FP().SliceVar("out")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Raw().Equal(b.Raw()) {
		t.Fatal("paper-strict OPT disagrees with FP")
	}
}

func TestFacadeDumpIR(t *testing.T) {
	p, err := slicer.Compile(`func main() { print(1 + 2); }`)
	if err != nil {
		t.Fatal(err)
	}
	if out := p.DumpIR(); len(out) == 0 {
		t.Fatal("empty IR dump")
	}
}

func TestRecordingCloseRemovesArtifacts(t *testing.T) {
	p, err := slicer.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Record(slicer.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := rec.TracePath()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("trace file missing after Record: %v", err)
	}
	rec.Close()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("trace file survived Close: %v", err)
	}
	if _, err := os.Stat(filepath.Dir(path)); !os.IsNotExist(err) {
		t.Fatalf("temp dir survived Close: %v", err)
	}
	rec.Close() // second Close must be a no-op, not a panic or re-remove
}

func TestRecordingCloseKeepsCallerDir(t *testing.T) {
	p, err := slicer.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rec, err := p.Record(slicer.RunOptions{TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec.Close()
	if _, err := os.Stat(filepath.Join(dir, "run.trace")); !os.IsNotExist(err) {
		t.Fatalf("trace file survived Close in caller dir: %v", err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("Close removed the caller-supplied directory: %v", err)
	}
}

func TestRecordFailureLeavesNothing(t *testing.T) {
	p, err := slicer.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}

	// Failure after the cleanup handler is armed: TraceDir names a regular
	// file, so creating run.trace under it fails partway through Record.
	dir := t.TempDir()
	notADir := filepath.Join(dir, "occupied")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Record(slicer.RunOptions{TraceDir: notADir}); err == nil {
		t.Fatal("Record with a file as TraceDir must fail")
	}
	if _, err := os.Stat(notADir); err != nil {
		t.Fatalf("error-path cleanup removed the caller's file: %v", err)
	}

	// Failure before any artifact exists: the aborted run must not leave a
	// trace file in the caller's directory.
	if _, err := p.Record(slicer.RunOptions{TraceDir: dir, MaxSteps: 1}); err == nil {
		t.Fatal("Record with MaxSteps=1 must fail")
	}
	if _, err := os.Stat(filepath.Join(dir, "run.trace")); !os.IsNotExist(err) {
		t.Fatalf("failed Record left run.trace behind: %v", err)
	}
}

// TestGlobalAddrUndefined: an undeclared variable name is a bad
// criterion by sentinel, with the message unchanged.
func TestGlobalAddrUndefined(t *testing.T) {
	p, err := slicer.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.GlobalAddr("nosuch")
	if !errors.Is(err, slicing.ErrUndefined) {
		t.Fatalf("GlobalAddr error %v does not wrap slicing.ErrUndefined", err)
	}
	if got, want := err.Error(), `slicer: no global named "nosuch"`; got != want {
		t.Fatalf("message = %q, want %q", got, want)
	}
	if got := querylog.Classify(err); got != "bad_criterion" {
		t.Fatalf("classified %q, want bad_criterion", got)
	}
}
