package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// BucketCount is one histogram bucket in a snapshot: the cumulative number
// of observations <= Upper (Prometheus "le" semantics).
type BucketCount struct {
	Upper      float64 // math.Inf(1) for the +Inf bucket
	Cumulative int64
}

// MetricSnapshot is the point-in-time state of one instrument.
type MetricSnapshot struct {
	Name string
	Help string
	Kind Kind

	// Value holds the counter or gauge reading (unused for histograms).
	Value float64

	// Histogram state: total observations, their sum, and the cumulative
	// per-bucket counts ending in the +Inf bucket.
	Count   int64
	Sum     float64
	Buckets []BucketCount
}

// Snapshot is an atomic-enough view of a whole registry, sorted by name.
// Each scalar is read with one atomic load; see Histogram for the (bounded)
// tear a concurrent observation can introduce between a bucket and the sum.
type Snapshot struct {
	Metrics []MetricSnapshot
}

// Snapshot captures every registered instrument, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	out := Snapshot{Metrics: make([]MetricSnapshot, 0, len(ms))}
	for _, m := range ms {
		snap := MetricSnapshot{Name: m.name, Help: m.help, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			snap.Value = float64(m.c.Value())
		case KindGauge:
			snap.Value = m.g.Value()
		case KindHistogram:
			h := m.h
			snap.Count = h.count.Load()
			snap.Sum = h.Sum()
			snap.Buckets = make([]BucketCount, 0, len(h.upper)+1)
			var cum int64
			for i, up := range h.upper {
				cum += h.counts[i].Load()
				snap.Buckets = append(snap.Buckets, BucketCount{Upper: up, Cumulative: cum})
			}
			cum += h.inf.Load()
			snap.Buckets = append(snap.Buckets, BucketCount{Upper: inf, Cumulative: cum})
		}
		out.Metrics = append(out.Metrics, snap)
	}
	return out
}

var inf = math.Inf(1)

// WriteProm writes the registry in the Prometheus text exposition format
// (version 0.0.4): # HELP / # TYPE comments followed by the samples, metrics
// sorted by name, histograms expanded into _bucket{le=...}/_sum/_count.
func (r *Registry) WriteProm(w io.Writer) error {
	return r.Snapshot().WriteProm(w)
}

// WriteProm writes an already-taken snapshot in the exposition format. The
// labelled series of one family sort next to each other, so their HELP and
// TYPE lines are written once, ahead of the first.
func (s Snapshot) WriteProm(w io.Writer) error {
	var b strings.Builder
	for i, m := range s.Metrics {
		if fam := family(m.Name); i == 0 || fam != family(s.Metrics[i-1].Name) {
			if m.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", fam, escapeHelp(m.Help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", fam, m.Kind)
		}
		switch m.Kind {
		case KindCounter, KindGauge:
			b.WriteString(m.Name)
			b.WriteByte(' ')
			b.WriteString(formatValue(m.Value))
			b.WriteByte('\n')
		case KindHistogram:
			for _, bk := range m.Buckets {
				le := "+Inf"
				if bk.Upper != inf {
					le = formatValue(bk.Upper)
				}
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.Name, le, bk.Cumulative)
			}
			fmt.Fprintf(&b, "%s_sum %s\n", m.Name, formatValue(m.Sum))
			fmt.Fprintf(&b, "%s_count %d\n", m.Name, m.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatValue renders a sample value the way Prometheus clients do: shortest
// round-trip representation, integers without a decimal point.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
