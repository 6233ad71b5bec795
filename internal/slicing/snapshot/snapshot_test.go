package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	slicer "dynslice"
	"dynslice/internal/slicing/labelblock"
	"dynslice/internal/slicing/snapshot"
	"dynslice/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/tiny.dysnap from the current format")

// tinySrc is the checked-in golden snapshot's program: small enough that
// the .dysnap file stays a few kilobytes, rich enough (loop, call, array,
// control dependence) that every section has content, and long enough
// that label lists seal into bit-packed blocks (with and without aux).
const tinySrc = `
var out = 0;
var a[4];

func bump(v) {
	a[v % 4] = a[v % 4] + v;
	return v + 1;
}

func main() {
	var i = 0;
	while (i < 24) {
		if (i % 2 == 0) {
			out = out + bump(i);
		}
		i = i + 1;
	}
	print(out);
}`

// buildSnapshot records tinySrc with the snapshot cache enabled and
// returns the single .dysnap file it produced.
func buildSnapshot(t *testing.T) (path string, raw []byte) {
	t.Helper()
	dir := t.TempDir()
	p, err := slicer.Compile(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Record(slicer.RunOptions{
		Input:    []int64{7, 3, 5},
		Snapshot: slicer.SnapshotOptions{Dir: dir, Write: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Close()
	files, err := filepath.Glob(filepath.Join(dir, "*.dysnap"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot files = %v (err %v), want exactly one", files, err)
	}
	raw, err = os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return files[0], raw
}

// readBack loads a snapshot file through the real Read path with the
// given key (recovered from the intact file's meta section — the façade
// derives it from hashes; the format test only needs Read to accept its
// own output).
func readBack(t *testing.T, path string, key snapshot.Key) (*snapshot.Image, error) {
	t.Helper()
	p, err := slicer.Compile(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	return snapshot.Read(path, p.IR(), key)
}

// keyOf parses the documented container layout to pull the key out of
// the meta section.
func keyOf(t *testing.T, raw []byte) snapshot.Key {
	t.Helper()
	meta := section(t, raw, 1)
	var key snapshot.Key
	copy(key.Program[:], meta[0:32])
	copy(key.Input[:], meta[32:64])
	copy(key.Config[:], meta[64:96])
	return key
}

// section returns the payload byte range of a section id via the
// directory (offset, length within raw).
func section(t *testing.T, raw []byte, id uint32) []byte {
	t.Helper()
	e := dirEntry(t, raw, id)
	off := binary.LittleEndian.Uint64(e[4:12])
	ln := binary.LittleEndian.Uint64(e[12:20])
	return raw[off : off+ln]
}

// dirEntry returns the directory entry of a section id: id, offset,
// length, CRC-32.
func dirEntry(t *testing.T, raw []byte, id uint32) []byte {
	t.Helper()
	n := binary.LittleEndian.Uint32(raw[5:9])
	for i := 0; i < int(n); i++ {
		if e := raw[9+i*24 : 9+(i+1)*24]; binary.LittleEndian.Uint32(e[0:4]) == id {
			return e
		}
	}
	t.Fatalf("section %d not found", id)
	return nil
}

// TestDeterministicBytes: identical runs serialize to identical bytes —
// the property the golden file (and content addressing) depends on.
func TestDeterministicBytes(t *testing.T) {
	_, a := buildSnapshot(t)
	_, b := buildSnapshot(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical recordings produced different snapshot bytes")
	}
}

// TestGoldenSnapshot guards the on-disk format: the checked-in
// testdata/tiny.dysnap must stay byte-identical to what the current code
// writes (run with -update after an intentional format change — which
// must also bump snapshot.Version), and must still load and answer.
func TestGoldenSnapshot(t *testing.T) {
	golden := filepath.Join("testdata", "tiny.dysnap")
	_, raw := buildSnapshot(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/slicing/snapshot -update` to create it)", err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("snapshot bytes drifted from %s (%d vs %d bytes); if the format change is intentional, bump snapshot.Version and re-run with -update",
			golden, len(raw), len(want))
	}
	img, err := readBack(t, golden, keyOf(t, want))
	if err != nil {
		t.Fatalf("golden snapshot does not load: %v", err)
	}
	if img.FP == nil || img.OPT == nil || len(img.Output) == 0 {
		t.Fatal("golden snapshot loaded incomplete")
	}
}

// TestVersion1Image: testdata/tiny-v1.dysnap is a real image of the
// version-1 format (delta-varint label blocks). Read must reject it as
// ClassBadVersion, and a Record that finds one at its cache path must
// count the classified failure and rebuild, answering the same slice.
func TestVersion1Image(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "tiny-v1.dysnap"))
	if err != nil {
		t.Fatal(err)
	}
	if old[4] != 1 {
		t.Fatalf("tiny-v1.dysnap has version byte %d, want 1", old[4])
	}
	path, raw := buildSnapshot(t)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBack(t, path, keyOf(t, raw)); snapshot.Classify(err) != labelblock.ClassBadVersion {
		t.Fatalf("Classify = %q (%v), want %q", snapshot.Classify(err), err, labelblock.ClassBadVersion)
	}
	checkFallback(t, path, labelblock.ClassBadVersion)
}

// TestRetiredFlatLayout: an image of the retired flat label layout set
// the FP section's layout byte and bit 9 of OPT's config bits. Each
// loader must reject its flag as ClassBadBlock, and Record must count the
// failure and rebuild.
func TestRetiredFlatLayout(t *testing.T) {
	for _, tc := range []struct {
		name string
		id   uint32 // section
		set  func(t *testing.T, sec []byte)
	}{
		{"fp", 3, func(t *testing.T, sec []byte) {
			off := 0
			for range 3 { // timestamp counter, data and cd pair counts
				_, n := binary.Uvarint(sec[off:])
				off += n
			}
			if sec[off] != 0 {
				t.Fatalf("layout byte = %d, want 0", sec[off])
			}
			sec[off] = 1
		}},
		{"opt", 4, func(t *testing.T, sec []byte) {
			bits, n := binary.Uvarint(sec)
			set := binary.AppendUvarint(nil, bits|1<<9)
			if bits&(1<<9) != 0 || len(set) != n {
				t.Fatalf("config bits %#x: bit 9 already set or not settable in place", bits)
			}
			copy(sec, set)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, raw := buildSnapshot(t)
			key := keyOf(t, raw)
			sec := section(t, raw, tc.id)
			tc.set(t, sec)
			// Re-checksum the section so the edit reaches its decoder.
			binary.LittleEndian.PutUint32(dirEntry(t, raw, tc.id)[20:24], crc32.ChecksumIEEE(sec))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := readBack(t, path, key); snapshot.Classify(err) != labelblock.ClassBadBlock {
				t.Fatalf("Classify = %q (%v), want %q", snapshot.Classify(err), err, labelblock.ClassBadBlock)
			}
			checkFallback(t, path, labelblock.ClassBadBlock)
		})
	}
}

// checkFallback records tinySrc with the snapshot cache pointed at the
// unreadable image at path: Record must count one failure of class and
// rebuild, answering the slice a fresh recording answers.
func checkFallback(t *testing.T, path, class string) {
	t.Helper()
	p, err := slicer.Compile(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := slicer.RunOptions{Input: []int64{7, 3, 5}}
	fresh, err := p.Record(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.OPT().SliceVar("out")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	opts.Telemetry = reg
	opts.Snapshot = slicer.SnapshotOptions{Dir: filepath.Dir(path), Read: true}
	rec, err := p.Record(opts)
	if err != nil {
		t.Fatalf("an unreadable image must fall back, got error: %v", err)
	}
	defer rec.Close()
	if rec.Source() != "build" {
		t.Fatalf("Source = %q, want a rebuild", rec.Source())
	}
	if n := reg.Counter("snapshot.read.err." + class).Value(); n != 1 {
		t.Fatalf("snapshot.read.err.%s = %d, want 1", class, n)
	}
	got, err := rec.OPT().SliceVar("out")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Raw().Equal(want.Raw()) {
		t.Fatal("fallback build answered a different slice")
	}
}

// TestSectionCorruption flips one byte inside each section's payload and
// expects a classified checksum failure; structural damage to the header
// and directory classifies too. Nothing may panic or load silently.
func TestSectionCorruption(t *testing.T) {
	path, raw := buildSnapshot(t)
	key := keyOf(t, raw) // the key comes from intact bytes, mutations notwithstanding
	load := func(t *testing.T, mutated []byte) error {
		t.Helper()
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readBack(t, path, key)
		return err
	}
	clone := func() []byte { return append([]byte(nil), raw...) }

	for id := uint32(1); id <= 4; id++ {
		t.Run(map[uint32]string{1: "meta", 2: "segs", 3: "fp", 4: "opt"}[id], func(t *testing.T) {
			mutated := clone()
			sec := section(t, mutated, id)
			if len(sec) == 0 {
				t.Skip("empty section")
			}
			sec[len(sec)/2] ^= 0x20
			err := load(t, mutated)
			if err == nil {
				t.Fatal("corrupt section loaded cleanly")
			}
			if got := snapshot.Classify(err); got != snapshot.ClassBadChecksum {
				t.Fatalf("Classify = %q (%v), want %q", got, err, snapshot.ClassBadChecksum)
			}
		})
	}
	t.Run("magic", func(t *testing.T) {
		mutated := clone()
		mutated[0] ^= 0xff
		if got := snapshot.Classify(load(t, mutated)); got != labelblock.ClassBadMagic {
			t.Fatalf("Classify = %q, want %q", got, labelblock.ClassBadMagic)
		}
	})
	t.Run("version", func(t *testing.T) {
		mutated := clone()
		mutated[4]++
		if got := snapshot.Classify(load(t, mutated)); got != labelblock.ClassBadVersion {
			t.Fatalf("Classify = %q, want %q", got, labelblock.ClassBadVersion)
		}
	})
	t.Run("directory", func(t *testing.T) {
		mutated := clone()
		// Push a section's offset past EOF.
		binary.LittleEndian.PutUint64(mutated[9+4:], uint64(len(mutated))*2)
		if got := snapshot.Classify(load(t, mutated)); got != labelblock.ClassTruncated {
			t.Fatalf("Classify = %q, want %q", got, labelblock.ClassTruncated)
		}
	})
	t.Run("truncate-every-prefix", func(t *testing.T) {
		// Every prefix must fail classified, never panic. Step through a
		// spread of cut points including all short ones.
		for cut := 0; cut < len(raw); cut += 1 + cut/16 {
			err := load(t, clone()[:cut])
			if err == nil {
				t.Fatalf("prefix of %d bytes loaded cleanly", cut)
			}
			if snapshot.Classify(err) == "" {
				t.Fatalf("prefix of %d bytes: unclassified error %v", cut, err)
			}
		}
	})
	t.Run("key-mismatch", func(t *testing.T) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := slicer.Compile(tinySrc)
		if err != nil {
			t.Fatal(err)
		}
		wrong := key
		wrong.Input[0] ^= 0xff
		_, err = snapshot.Read(path, p.IR(), wrong)
		if got := snapshot.Classify(err); got != snapshot.ClassKeyMismatch {
			t.Fatalf("Classify = %q (%v), want %q", got, err, snapshot.ClassKeyMismatch)
		}
	})
}

// TestCacheKeySensitivity: each component digest reacts to its input.
func TestCacheKeySensitivity(t *testing.T) {
	p1, err := slicer.Compile(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := slicer.Compile(tinySrc + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if snapshot.HashProgram(p1.IR()) == snapshot.HashProgram(p2.IR()) {
		t.Fatal("program digest ignores source changes")
	}
	if snapshot.HashProgram(p1.IR()) != snapshot.HashProgram(p1.IR()) {
		t.Fatal("program digest is unstable")
	}
	if snapshot.HashInput([]int64{1}, 0) == snapshot.HashInput([]int64{2}, 0) {
		t.Fatal("input digest ignores values")
	}
	if snapshot.HashInput([]int64{1}, 0) == snapshot.HashInput([]int64{1}, 100) {
		t.Fatal("input digest ignores the step budget")
	}
	if snapshot.HashConfig("a") == snapshot.HashConfig("b") {
		t.Fatal("config digest ignores the fingerprint")
	}
}
