package benchkit

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request (a
// frame or a batch) share Trace; Parent is the ID of the span that caused
// this one (0: a root). Times are nanoseconds since the recorder started.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// tracing switched off: every method is a no-op, so the untraced run pays
// one nil check per boundary.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its ID (0 when tracing is off). The span
// counts only once End closes it.
func (r *Recorder) Begin(name string, trace uint64, parent int, start time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(r.t0)), End: -1,
	})
	r.mu.Unlock()
	return id
}

// End closes the span Begin returned; ID 0 (tracing off) is ignored.
func (r *Recorder) End(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = int64(end.Sub(r.t0))
	r.mu.Unlock()
}

// Add records a finished span and returns its ID (0 when tracing is off).
func (r *Recorder) Add(name string, trace uint64, parent int, start, end time.Time) int {
	id := r.Begin(name, trace, parent, start)
	r.End(id, end)
	return id
}

// Spans returns a copy of every closed span recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSON writes the spans to path as one JSON array.
func (r *Recorder) WriteJSON(path string) error {
	raw, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// SelfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (children are clipped to the parent
// and overlapping children are counted once).
func SelfTimes(spans []Span) map[int]int64 {
	byID := make(map[int]Span, len(spans))
	children := make(map[int][]Span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// SpanSummary aggregates spans of one name.
type SpanSummary struct {
	Name      string
	Count     int
	P50Ms     float64
	SelfP50Ms float64
}

// Summarize groups spans by name and reports the median duration and median
// self time of each group, sorted by name.
func Summarize(spans []Span) []SpanSummary {
	self := SelfTimes(spans)
	dur := map[string][]float64{}
	slf := map[string][]float64{}
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e6)
		slf[s.Name] = append(slf[s.Name], float64(self[s.ID])/1e6)
	}
	out := make([]SpanSummary, 0, len(dur))
	for name, d := range dur {
		out = append(out, SpanSummary{Name: name, Count: len(d), P50Ms: Median(d), SelfP50Ms: Median(slf[name])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
