package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"dynslice/internal/ir"
)

// Key is the content address of a snapshot: three SHA-256 digests that
// together decide whether a cached graph image answers for a run.
//
//   - Program: the IR — any edit to the program under analysis misses.
//   - Input: the input vector and step budget — a different execution
//     builds a different dyDG.
//   - Config: the graph-shaping knobs (OPT stage selection, shortcuts,
//     adaptive deltas, tracked criteria) plus
//     the format version — anything that changes either the bytes on
//     disk or the graph they decode into.
//
// Two runs share a snapshot iff all three digests match; everything else
// (telemetry, query logging, worker counts) is deliberately outside the
// key because it does not shape the graph.
type Key struct {
	Program [32]byte
	Input   [32]byte
	Config  [32]byte
}

// String renders the combined content address: the hex SHA-256 of the
// three component digests, which names the cache file.
func (k Key) String() string {
	h := sha256.New()
	h.Write(k.Program[:])
	h.Write(k.Input[:])
	h.Write(k.Config[:])
	return hex.EncodeToString(h.Sum(nil))
}

// HashProgram digests a program's IR: the original source text (lowering
// is deterministic, so it subsumes expression structure) plus a
// structural summary of everything the graph builders read — block
// membership and successors, control-dependence ancestors, per-statement
// use slots and def summaries — so programmatically built or mutated IR
// hashes correctly even with an empty Source.
func HashProgram(p *ir.Program) [32]byte {
	h := sha256.New()
	buf := make([]byte, 0, 64)
	u := func(vs ...int64) {
		buf = buf[:0]
		for _, v := range vs {
			buf = binary.AppendVarint(buf, v)
		}
		h.Write(buf)
	}
	fmt.Fprintf(h, "src:%d:%s", len(p.Source), p.Source)
	u(int64(len(p.Funcs)), int64(len(p.Blocks)), int64(len(p.Stmts)), int64(len(p.Objects)), p.GlobalSize)
	for _, o := range p.Objects {
		fmt.Fprintf(h, "o%s", o.Name)
		u(o.Size, o.Off, b2i(o.IsArray), b2i(o.AddrTaken), b2i(o.IsRet))
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(h, "F%s", f.Name)
		u(int64(len(f.Params)), int64(len(f.Blocks)), f.FrameSize)
		for _, pr := range f.Params {
			u(int64(pr.ID))
		}
	}
	for _, b := range p.Blocks {
		u(int64(f2i(b.Fn)), int64(len(b.Stmts)), int64(len(b.Succs)), int64(len(b.CDAncestors)))
		for _, s := range b.Stmts {
			u(int64(s.ID))
		}
		for _, s := range b.Succs {
			u(int64(s.ID))
		}
		for _, a := range b.CDAncestors {
			u(int64(a.ID))
		}
	}
	for _, s := range p.Stmts {
		u(int64(s.Op), int64(s.Block.ID), int64(s.Lhs), int64(s.LhsObj), int64(s.Obj),
			int64(s.MustDef), int64(s.NumDefs), int64(len(s.Uses)), int64(len(s.MayDefs)))
		for _, use := range s.Uses {
			u(int64(use.Obj), b2i(use.IsPtr), b2i(use.IsIdx), int64(len(use.MayPts)))
			for _, t := range use.MayPts {
				u(int64(t))
			}
		}
		for _, d := range s.MayDefs {
			u(int64(d))
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func f2i(f *ir.Func) int {
	if f == nil {
		return -1
	}
	return f.ID
}

// HashInput digests the execution identity: input vector and step budget.
func HashInput(input []int64, maxSteps int64) [32]byte {
	h := sha256.New()
	buf := make([]byte, 0, 64)
	buf = binary.AppendVarint(buf, maxSteps)
	buf = binary.AppendVarint(buf, int64(len(input)))
	for _, v := range input {
		buf = binary.AppendVarint(buf, v)
	}
	h.Write(buf)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// HashConfig digests the graph-shaping configuration fingerprint plus the
// snapshot format version. fingerprint should be a stable rendering of
// every knob that changes the built graph (see slicer.Run's caller).
func HashConfig(fingerprint string) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|%s", Version, fingerprint)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Cache is a content-addressed snapshot store: a directory of
// <key>.dysnap files. The zero value is unusable; construct with
// NewCache.
type Cache struct {
	dir string
}

// DefaultDir returns the per-user snapshot cache directory
// (os.UserCacheDir()/dynslice/snapshots).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", err
	}
	return filepath.Join(base, "dynslice", "snapshots"), nil
}

// NewCache opens (creating if needed) a snapshot cache rooted at dir;
// empty dir means DefaultDir.
func NewCache(dir string) (*Cache, error) {
	if dir == "" {
		var err error
		if dir, err = DefaultDir(); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Path returns the file path a key's snapshot lives at (whether or not
// it exists yet).
func (c *Cache) Path(key Key) string {
	return filepath.Join(c.dir, key.String()+".dysnap")
}

// Has reports whether a snapshot exists for key.
func (c *Cache) Has(key Key) bool {
	_, err := os.Stat(c.Path(key))
	return err == nil
}
