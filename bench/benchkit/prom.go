package benchkit

import (
	"strconv"
	"strings"
)

// ParseProm reads a Prometheus 0.0.4 text exposition into series → value.
// A series key is the sample name with its label block exactly as written
// (`framelog_fsync_seconds_bucket{le="0.001"}`), so histogram sums, counts
// and buckets are all addressable. Comment lines and unparsable lines are
// skipped.
func ParseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// The value is the last space-separated field that parses as a
		// number; a label block may itself contain spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out
}

// PromDelta returns after − before for every series in after (a series
// missing from before counts from zero).
func PromDelta(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// PromValue extracts one unlabelled series from an exposition without
// parsing the rest — the cheap form for polling a single counter.
func PromValue(text, name string) (float64, bool) {
	for {
		i := strings.Index(text, name+" ")
		if i < 0 {
			return 0, false
		}
		if i == 0 || text[i-1] == '\n' {
			rest := text[i+len(name)+1:]
			if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
				rest = rest[:nl]
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
		text = text[i+len(name):]
	}
}
