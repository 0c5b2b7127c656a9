package benchkit

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsParentMinusChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "frame", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "ingest", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "decode", Start: 20, End: 50}, // overlaps ingest: 20..30 counts once
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 130},  // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "encode", Start: 12, End: 18}, // grandchild: only ingest's business
		{ID: 6, Parent: 9, Name: "orphan", Start: 0, End: 7},   // parent never closed
	}
	self := SelfTimes(spans)
	want := map[int]int64{
		1: 100 - (20 + 20 + 10), // 10..50 covered once, plus 90..100
		2: 20 - 6,
		3: 30,
		4: 40,
		5: 6,
		6: 7,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
}

func TestRecorderBeginEndAndNil(t *testing.T) {
	var off *Recorder
	if id := off.Begin("x", 1, 0, time.Now()); id != 0 {
		t.Errorf("nil recorder Begin = %d, want 0", id)
	}
	off.End(0, time.Now())
	if off.Add("x", 1, 0, time.Now(), time.Now()) != 0 || off.Spans() != nil {
		t.Error("nil recorder must record nothing")
	}

	r := NewRecorder()
	t0 := time.Now()
	parent := r.Begin("frame", 7, 0, t0)
	child := r.Add("ingest", 7, parent, t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	open := r.Begin("never-closed", 7, parent, t0)
	if got := r.Spans(); len(got) != 1 || got[0].ID != child {
		t.Fatalf("before End only the closed child counts, got %+v", got)
	}
	r.End(parent, t0.Add(10*time.Millisecond))
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d closed spans, want 2 (span %d stays open)", len(spans), open)
	}
	if self := SelfTimes(spans)[parent]; self != int64(8*time.Millisecond) {
		t.Errorf("parent self = %v, want 8ms", time.Duration(self))
	}
	sum := Summarize(spans)
	if len(sum) != 2 || sum[0].Name != "frame" || sum[0].P50Ms != 10 || sum[0].SelfP50Ms != 8 || sum[1].P50Ms != 2 {
		t.Errorf("summary = %+v", sum)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []Span
	if err := json.Unmarshal(raw, &back); err != nil || len(back) != 2 || back[1].Parent != parent || back[1].Trace != 7 {
		t.Errorf("trace file round trip: %v %+v", err, back)
	}
}
