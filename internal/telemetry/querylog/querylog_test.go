package querylog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dynslice/internal/slicing"
)

func TestNilLogIsInert(t *testing.T) {
	var l *Log
	if id := l.NextID(); id != 0 {
		t.Errorf("nil NextID = %d, want 0", id)
	}
	l.Add(Record{ID: 1})
	l.SetSink(&bytes.Buffer{})
	l.SetSlowQuery(time.Millisecond, slog.Default())
	if l.Total() != 0 || l.Capacity() != 0 || l.SlowQueries() != 0 {
		t.Error("nil log reported state")
	}
	if l.Recent(5) != nil {
		t.Error("nil Recent != nil")
	}
	if err := l.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
	if err := l.SinkErr(); err != nil {
		t.Error(err)
	}
	rr := httptest.NewRecorder()
	l.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/queries", nil))
	if rr.Code != 404 {
		t.Errorf("nil ServeHTTP status = %d, want 404", rr.Code)
	}
}

func TestNextIDMonotonic(t *testing.T) {
	l := New(4)
	for want := uint64(1); want <= 10; want++ {
		if id := l.NextID(); id != want {
			t.Fatalf("NextID = %d, want %d", id, want)
		}
	}
}

func TestRingEvictsOldest(t *testing.T) {
	l := New(3)
	for i := 1; i <= 5; i++ {
		l.Add(Record{ID: uint64(i)})
	}
	if l.Total() != 5 {
		t.Errorf("Total = %d, want 5", l.Total())
	}
	recs := l.Recent(0)
	if len(recs) != 3 {
		t.Fatalf("retained %d records, want 3", len(recs))
	}
	// Most recent first: 5, 4, 3.
	for i, want := range []uint64{5, 4, 3} {
		if recs[i].ID != want {
			t.Errorf("Recent[%d].ID = %d, want %d", i, recs[i].ID, want)
		}
	}
	if got := l.Recent(1); len(got) != 1 || got[0].ID != 5 {
		t.Errorf("Recent(1) = %v", got)
	}
}

func TestWriteJSONLOldestFirst(t *testing.T) {
	l := New(8)
	for i := 1; i <= 4; i++ {
		l.Add(Record{ID: uint64(i), Backend: "OPT", Kind: KindSlice, Addr: int64(100 + i)})
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var ids []uint64
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		ids = append(ids, r.ID)
	}
	if len(ids) != 4 {
		t.Fatalf("got %d lines, want 4", len(ids))
	}
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Errorf("line %d has ID %d, want %d (oldest first)", i, id, i+1)
		}
	}
}

func TestStreamingSink(t *testing.T) {
	l := New(2) // smaller than the record count: sink must still see all
	var buf bytes.Buffer
	l.SetSink(&buf)
	for i := 1; i <= 5; i++ {
		l.Add(Record{ID: uint64(i), Backend: "FP", Kind: KindSlice})
	}
	if err := l.SinkErr(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 5 {
		t.Errorf("sink received %d lines, want 5", lines)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestSinkErrorLatches(t *testing.T) {
	l := New(8)
	l.SetSink(&failWriter{n: 2})
	for i := 0; i < 5; i++ {
		l.Add(Record{ID: uint64(i + 1)})
	}
	if err := l.SinkErr(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("SinkErr = %v, want disk full", err)
	}
	// The ring keeps recording past the sink failure.
	if l.Total() != 5 {
		t.Errorf("Total = %d, want 5", l.Total())
	}
}

func TestSlowQueryLogging(t *testing.T) {
	l := New(8)
	var buf bytes.Buffer
	l.SetSlowQuery(10*time.Millisecond, slog.New(slog.NewTextHandler(&buf, nil)))
	l.Add(Record{ID: 1, Backend: "OPT", Kind: KindSlice, Latency: 2 * time.Millisecond})
	l.Add(Record{
		ID: 2, Backend: "LP", Kind: KindSlice, Addr: 77,
		Latency: 25 * time.Millisecond, Stmts: 9,
		Plan: "reexec", PlanReason: "fallback from reexec: desync",
		Source: "build", TraceID: 0xab,
	})
	if l.SlowQueries() != 1 {
		t.Fatalf("SlowQueries = %d, want 1", l.SlowQueries())
	}
	out := buf.String()
	if !strings.Contains(out, "slow query") || !strings.Contains(out, "id=2") ||
		!strings.Contains(out, "backend=LP") || !strings.Contains(out, "latency_ms=25") {
		t.Errorf("slow log missing fields: %q", out)
	}
	// One line explains the fallback: plan, reason, source, trace link.
	if !strings.Contains(out, "plan=reexec") ||
		!strings.Contains(out, `plan_reason="fallback from reexec: desync"`) ||
		!strings.Contains(out, "source=build") ||
		!strings.Contains(out, "trace_id=00000000000000ab") {
		t.Errorf("slow log missing fallback fields: %q", out)
	}
}

func TestClassify(t *testing.T) {
	tests := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{fmt.Errorf("fp: address 7 %w", slicing.ErrUndefined), "bad_criterion"},
		{fmt.Errorf("engine: %w", fmt.Errorf("lp: address 9 %w", slicing.ErrUndefined)), "bad_criterion"},
		// Classification is by sentinel: the wording alone is not enough.
		{errors.New("address 7 was never defined"), "internal"},
		{errors.New("segment decode failed"), "internal"},
	}
	for _, tc := range tests {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

func TestServeHTTP(t *testing.T) {
	l := New(16)
	for i := 1; i <= 6; i++ {
		l.Add(Record{ID: uint64(i), Backend: "OPT", Kind: KindBatch, Batch: 6})
	}
	rr := httptest.NewRecorder()
	l.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/queries?n=2", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var resp struct {
		Total    uint64   `json:"total"`
		Capacity int      `json:"capacity"`
		Records  []Record `json:"records"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 6 || resp.Capacity != 16 {
		t.Errorf("total/capacity = %d/%d", resp.Total, resp.Capacity)
	}
	if len(resp.Records) != 2 || resp.Records[0].ID != 6 {
		t.Errorf("records = %+v", resp.Records)
	}

	rr = httptest.NewRecorder()
	l.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/queries?n=bogus", nil))
	if rr.Code != 400 {
		t.Errorf("bad n status = %d, want 400", rr.Code)
	}
}

func TestWriteFileAtomicSnapshot(t *testing.T) {
	l := New(8)
	l.Add(Record{ID: 1, Backend: "FP", Kind: KindSlice})
	path := filepath.Join(t.TempDir(), "q.jsonl")
	if err := l.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r Record
	if err := json.Unmarshal(bytes.TrimSpace(data), &r); err != nil || r.ID != 1 {
		t.Fatalf("snapshot content %q: %v", data, err)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("temp file left behind: %v", ents)
	}
}

// TestHammer exercises every concurrent surface at once under -race:
// writers adding records, readers walking the ring, JSONL exports, and
// /debug/queries requests.
func TestHammer(t *testing.T) {
	l := New(64)
	var buf bytes.Buffer
	var bufMu sync.Mutex
	l.SetSink(lockedWriter{&bufMu, &buf})
	l.SetSlowQuery(time.Nanosecond, slog.New(slog.NewTextHandler(discard{}, nil)))

	const writers, perWriter, readers = 8, 200, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Add(Record{
					ID:      l.NextID(),
					Backend: "OPT",
					Kind:    KindSlice,
					Addr:    int64(w*1000 + i),
					Latency: time.Duration(i) * time.Microsecond,
					Stmts:   i,
				})
			}
		}(w)
	}
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				recs := l.Recent(10)
				for i := 1; i < len(recs); i++ {
					if recs[i].ID == 0 {
						t.Error("read a zero record")
						return
					}
				}
				var sink bytes.Buffer
				if err := l.WriteJSONL(&sink); err != nil {
					t.Error(err)
					return
				}
				rr := httptest.NewRecorder()
				l.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/queries?n=5", nil))
				if rr.Code != 200 {
					t.Errorf("status %d", rr.Code)
					return
				}
			}
		}()
	}
	// Writers finish, then release the readers.
	go func() {
		defer close(done)
		for l.Total() < writers*perWriter {
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	if l.Total() != writers*perWriter {
		t.Errorf("Total = %d, want %d", l.Total(), writers*perWriter)
	}
	if got := len(l.Recent(0)); got != 64 {
		t.Errorf("retained %d records, want capacity 64", got)
	}
	bufMu.Lock()
	lines := strings.Count(buf.String(), "\n")
	bufMu.Unlock()
	if lines != writers*perWriter {
		t.Errorf("sink saw %d lines, want %d", lines, writers*perWriter)
	}
	if l.SlowQueries() == 0 {
		t.Error("no slow queries recorded despite 1ns threshold")
	}
}

// lockedWriter guards the hammer test's shared buffer; the Log already
// serializes sink writes, but the test's final read needs the same lock.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestNewClampsCapacity(t *testing.T) {
	if got := New(0).Capacity(); got != DefaultCapacity {
		t.Errorf("New(0).Capacity = %d, want %d", got, DefaultCapacity)
	}
	if got := New(-3).Capacity(); got != DefaultCapacity {
		t.Errorf("New(-3).Capacity = %d, want %d", got, DefaultCapacity)
	}
}
