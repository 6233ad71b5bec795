package slicer_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	slicer "dynslice"
	"dynslice/internal/telemetry"
	"dynslice/internal/telemetry/querylog"
)

// snapshotSrc exercises every label-producing construct the graphs
// serialize: loops, calls, arrays, pointers, and output.
const snapshotSrc = `
var out = 0;
var arr[8];
var p = 0;

func step(v) {
	arr[v % 8] = arr[v % 8] + v;
	return v * 2 + input();
}

func main() {
	var i = 0;
	p = &out;
	while (i < 12) {
		out = out + step(i);
		*p = out + arr[i % 8];
		i = i + 1;
	}
	print(out);
	print(arr[3]);
}`

var snapshotInput = []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p, err := slicer.Compile(snapshotSrc)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	opts := slicer.RunOptions{
		Input: snapshotInput, TrackCriteria: 16, Telemetry: reg,
		Snapshot: slicer.SnapshotOptions{Dir: dir, Read: true, Write: true},
	}
	built, err := p.Record(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	if got := built.Source(); got != "build" {
		t.Fatalf("first Record source = %q, want build", got)
	}
	if n := counter(reg, "engine.snapshot.miss"); n != 1 {
		t.Fatalf("engine.snapshot.miss = %d, want 1", n)
	}
	if counter(reg, "snapshot.write.bytes") == 0 {
		t.Fatal("snapshot.write.bytes = 0 after a Write-enabled build")
	}

	loaded, err := p.Record(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got := loaded.Source(); got != "snapshot" {
		t.Fatalf("second Record source = %q, want snapshot", got)
	}
	if n := counter(reg, "engine.snapshot.hit"); n != 1 {
		t.Fatalf("engine.snapshot.hit = %d, want 1", n)
	}
	if counter(reg, "snapshot.load.bytes") == 0 {
		t.Fatal("snapshot.load.bytes = 0 after a hit")
	}

	// Run metadata survives the round trip.
	if loaded.Steps != built.Steps || loaded.Return != built.Return {
		t.Fatalf("loaded steps/return = %d/%d, want %d/%d", loaded.Steps, loaded.Return, built.Steps, built.Return)
	}
	if len(loaded.Output) != len(built.Output) {
		t.Fatalf("loaded output %v, want %v", loaded.Output, built.Output)
	}
	if len(loaded.Criteria()) == 0 || len(loaded.Criteria()) != len(built.Criteria()) {
		t.Fatalf("loaded criteria %v, want %v", loaded.Criteria(), built.Criteria())
	}

	// Every tracked criterion slices identically on both backends.
	for _, name := range []string{"FP", "OPT"} {
		var bs, ls *slicer.Slicer
		if name == "FP" {
			bs, ls = built.FP(), loaded.FP()
		} else {
			bs, ls = built.OPT(), loaded.OPT()
		}
		want, err := bs.SliceAddrs(built.Criteria())
		if err != nil {
			t.Fatal(err)
		}
		got, err := ls.SliceAddrs(loaded.Criteria())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !want[i].Raw().Equal(got[i].Raw()) {
				t.Fatalf("%s: slice %d differs between built and snapshot-loaded graphs", name, i)
			}
		}
	}

	// LP needs the trace file, which a snapshot does not carry.
	if _, err := loaded.LP().SliceVar("out"); err == nil {
		t.Fatal("LP on a snapshot-loaded recording should error")
	} else if !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("LP error %q should mention the snapshot", err)
	}
}

// TestSnapshotKeyMiss: changing the input (or config) must miss the cache.
func TestSnapshotKeyMiss(t *testing.T) {
	dir := t.TempDir()
	p, err := slicer.Compile(snapshotSrc)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Record(slicer.RunOptions{
		Input:    snapshotInput,
		Snapshot: slicer.SnapshotOptions{Dir: dir, Read: true, Write: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	other := append([]int64{99}, snapshotInput[1:]...)
	second, err := p.Record(slicer.RunOptions{
		Input:    other,
		Snapshot: slicer.SnapshotOptions{Dir: dir, Read: true, Write: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if second.Source() != "build" {
		t.Fatal("different input must not hit the cache")
	}
	tracked, err := p.Record(slicer.RunOptions{
		Input: snapshotInput, TrackCriteria: 4,
		Snapshot: slicer.SnapshotOptions{Dir: dir, Read: true, Write: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tracked.Close()
	if tracked.Source() != "build" {
		t.Fatal("different config must not hit the cache")
	}
}

// TestSnapshotCorruptionFallback: a damaged snapshot is never an error and
// never a wrong slice — Record counts the classified failure and rebuilds.
func TestSnapshotCorruptionFallback(t *testing.T) {
	dir := t.TempDir()
	p, err := slicer.Compile(snapshotSrc)
	if err != nil {
		t.Fatal(err)
	}
	built, err := p.Record(slicer.RunOptions{
		Input:    snapshotInput,
		Snapshot: slicer.SnapshotOptions{Dir: dir, Read: true, Write: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	want, err := built.OPT().SliceVar("out")
	if err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.dysnap"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot files = %v (err %v), want exactly one", files, err)
	}
	orig, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	mutate := map[string]func([]byte) []byte{
		"flip-header":  func(b []byte) []byte { b[0] ^= 0xff; return b },
		"flip-version": func(b []byte) []byte { b[4] ^= 0xff; return b },
		"flip-middle":  func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"flip-tail":    func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"truncate":     func(b []byte) []byte { return b[:len(b)/3] },
		"empty":        func(b []byte) []byte { return b[:0] },
	}
	for name, fn := range mutate {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(files[0], fn(append([]byte(nil), orig...)), 0o644); err != nil {
				t.Fatal(err)
			}
			reg := telemetry.New()
			rec, err := p.Record(slicer.RunOptions{
				Input: snapshotInput, Telemetry: reg,
				Snapshot: slicer.SnapshotOptions{Dir: dir, Read: true, Write: false},
			})
			if err != nil {
				t.Fatalf("corrupt snapshot must fall back, got error: %v", err)
			}
			defer rec.Close()
			if rec.Source() != "build" {
				t.Fatal("corrupt snapshot must not be served")
			}
			if n := counter(reg, "engine.snapshot.fallback"); n != 1 {
				t.Fatalf("engine.snapshot.fallback = %d, want 1", n)
			}
			var classified int64
			for _, cn := range reg.CounterNames() {
				if strings.HasPrefix(cn, "snapshot.read.err.") {
					classified += counter(reg, cn)
				}
			}
			if classified != 1 {
				t.Fatalf("classified snapshot.read.err.* total = %d, want 1", classified)
			}
			got, err := rec.OPT().SliceVar("out")
			if err != nil {
				t.Fatal(err)
			}
			if !got.Raw().Equal(want.Raw()) {
				t.Fatal("fallback build answered a different slice")
			}
		})
	}
}

// TestSnapshotAuditSource: audit records carry the graph provenance.
func TestSnapshotAuditSource(t *testing.T) {
	dir := t.TempDir()
	p, err := slicer.Compile(snapshotSrc)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(wantSource string) {
		t.Helper()
		qlog := querylog.New(64)
		rec, err := p.Record(slicer.RunOptions{
			Input: snapshotInput, QueryLog: qlog,
			Snapshot: slicer.SnapshotOptions{Dir: dir, Read: true, Write: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if _, err := rec.OPT().SliceVar("out"); err != nil {
			t.Fatal(err)
		}
		recs := qlog.Recent(1)
		if len(recs) != 1 || recs[0].Source != wantSource {
			t.Fatalf("audit source = %+v, want %q", recs, wantSource)
		}
	}
	runOnce("build")
	runOnce("snapshot")
}

func counter(reg *telemetry.Registry, name string) int64 {
	return reg.Counter(name).Value()
}
