// Package dataset assembles the paper's dataset (Table I format) from the
// three simulation substrates: occupant ground truth (internal/agents),
// environment series (internal/envsim) and the CSI channel (internal/csi).
// It provides the temporal train/test fold split of Table III, the
// occupancy-distribution profile of Table II, feature-subset extraction
// (CSI / Env / C+E / Time, §V-B) and CSV serialisation.
package dataset

import (
	"fmt"
	"time"

	"repro/internal/csi"
	"repro/internal/tensor"
)

// Record is one row of the collected dataset (paper Table I): timestamp,
// the 64 CSI amplitudes, temperature (°C), humidity (%RH), the number of
// simultaneous occupants and the derived binary occupancy label. Walking
// additionally records how many of the occupants were in motion — the
// ground truth for the activity-recognition extension (the paper's stated
// future work).
type Record struct {
	Time     time.Time
	CSI      [csi.NumSubcarriers]float64
	Temp     float64
	Humidity float64
	Count    int
	Walking  int
}

// Label returns the binary occupancy status (1 when at least one person is
// present), the paper's prediction target.
func (r *Record) Label() int {
	if r.Count > 0 {
		return 1
	}
	return 0
}

// SecondsOfDay returns the time-of-day feature used by the §V-B "only time"
// ablation (89.3% accuracy in the paper).
func (r *Record) SecondsOfDay() float64 {
	h, m, s := r.Time.Clock()
	return float64(h*3600 + m*60 + s)
}

// Activity classes for the activity-recognition extension.
const (
	ActivityEmpty  = 0 // nobody present
	ActivityStatic = 1 // people present, all seated/standing still
	ActivityMotion = 2 // at least one person walking
	NumActivities  = 3
)

// ActivityLabel derives the 3-class activity ground truth.
func (r *Record) ActivityLabel() int {
	switch {
	case r.Count == 0:
		return ActivityEmpty
	case r.Walking > 0:
		return ActivityMotion
	default:
		return ActivityStatic
	}
}

// CountLabel clamps the occupant count into [0, maxClasses-1] for use as a
// counting class ("maxClasses-1 or more people").
func (r *Record) CountLabel(maxClasses int) int {
	if maxClasses < 2 {
		panic(fmt.Sprintf("dataset: CountLabel needs ≥2 classes, got %d", maxClasses))
	}
	if r.Count >= maxClasses {
		return maxClasses - 1
	}
	return r.Count
}

// Dataset is an in-memory sequence of records ordered by time.
type Dataset struct {
	Records []Record
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Records) }

// FeatureSet selects which columns become model inputs (§V-B trains every
// model on three subsets; the time-only set backs the ablation).
type FeatureSet int

// Feature subsets of Table IV plus the time-only ablation.
const (
	FeatCSI    FeatureSet = iota // 64 subcarrier amplitudes
	FeatEnv                      // temperature and humidity
	FeatCSIEnv                   // all 66 features
	FeatTime                     // seconds-of-day only
)

// String implements fmt.Stringer using the paper's column headers.
func (f FeatureSet) String() string {
	switch f {
	case FeatCSI:
		return "CSI"
	case FeatEnv:
		return "Env"
	case FeatCSIEnv:
		return "C+E"
	case FeatTime:
		return "Time"
	default:
		return fmt.Sprintf("FeatureSet(%d)", int(f))
	}
}

// MarshalText implements encoding.TextMarshaler so FeatureSet-keyed maps
// serialise to readable JSON ("CSI", "Env", "C+E", "Time").
func (f FeatureSet) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (f *FeatureSet) UnmarshalText(b []byte) error {
	switch string(b) {
	case "CSI":
		*f = FeatCSI
	case "Env":
		*f = FeatEnv
	case "C+E":
		*f = FeatCSIEnv
	case "Time":
		*f = FeatTime
	default:
		return fmt.Errorf("dataset: unknown feature set %q", b)
	}
	return nil
}

// Valid reports whether f is one of the defined subsets — the check loaders
// must run on untrusted feature tags before calling Dim (which panics on
// unknown values).
func (f FeatureSet) Valid() bool {
	return f >= FeatCSI && f <= FeatTime
}

// Dim returns the feature dimensionality of the subset.
func (f FeatureSet) Dim() int {
	switch f {
	case FeatCSI:
		return csi.NumSubcarriers
	case FeatEnv:
		return 2
	case FeatCSIEnv:
		return csi.NumSubcarriers + 2
	case FeatTime:
		return 1
	default:
		panic(fmt.Sprintf("dataset: unknown feature set %d", int(f)))
	}
}

// fillFeatures writes the subset's features for r into dst (len f.Dim()).
func fillFeatures(dst []float64, r *Record, f FeatureSet) {
	switch f {
	case FeatCSI:
		copy(dst, r.CSI[:])
	case FeatEnv:
		dst[0] = r.Temp
		dst[1] = r.Humidity
	case FeatCSIEnv:
		copy(dst, r.CSI[:])
		dst[csi.NumSubcarriers] = r.Temp
		dst[csi.NumSubcarriers+1] = r.Humidity
	case FeatTime:
		dst[0] = r.SecondsOfDay()
	default:
		panic(fmt.Sprintf("dataset: unknown feature set %d", int(f)))
	}
}

// FeatureRow extracts one record's features as a fresh slice.
func FeatureRow(r *Record, f FeatureSet) []float64 {
	row := make([]float64, f.Dim())
	fillFeatures(row, r, f)
	return row
}

// FeatureRowInto extracts one record's features into a caller-owned slice
// of length f.Dim() — the allocation-free variant the serving path uses at
// stream rate. Returns dst.
func FeatureRowInto(dst []float64, r *Record, f FeatureSet) []float64 {
	if len(dst) != f.Dim() {
		panic(fmt.Sprintf("dataset: FeatureRowInto dst length %d != %d", len(dst), f.Dim()))
	}
	fillFeatures(dst, r, f)
	return dst
}

// Matrix materialises the feature matrix for the subset plus the binary
// labels, ready for any of the three model families.
func (d *Dataset) Matrix(f FeatureSet) (*tensor.Matrix, []int) {
	x := tensor.NewMatrix(len(d.Records), f.Dim())
	y := make([]int, len(d.Records))
	for i := range d.Records {
		r := &d.Records[i]
		fillFeatures(x.Row(i), r, f)
		y[i] = r.Label()
	}
	return x, y
}

// Column extracts a single named series for profiling: "temp", "humidity",
// "occupancy", "time", or a subcarrier index "a0".."a63".
func (d *Dataset) Column(name string) ([]float64, error) {
	out := make([]float64, len(d.Records))
	switch name {
	case "temp":
		for i := range d.Records {
			out[i] = d.Records[i].Temp
		}
	case "humidity":
		for i := range d.Records {
			out[i] = d.Records[i].Humidity
		}
	case "occupancy":
		for i := range d.Records {
			out[i] = float64(d.Records[i].Label())
		}
	case "count":
		for i := range d.Records {
			out[i] = float64(d.Records[i].Count)
		}
	case "time":
		for i := range d.Records {
			out[i] = d.Records[i].SecondsOfDay()
		}
	default:
		var k int
		if _, err := fmt.Sscanf(name, "a%d", &k); err != nil || k < 0 || k >= csi.NumSubcarriers {
			return nil, fmt.Errorf("dataset: unknown column %q", name)
		}
		for i := range d.Records {
			out[i] = d.Records[i].CSI[k]
		}
	}
	return out, nil
}

// Profile is the Table II summary: sample counts by number of simultaneous
// occupants.
type Profile struct {
	Total      int
	ByCount    map[int]int // occupants → samples
	Empty      int
	Occupied   int
	MaxPresent int
}

// Profile computes the Table II distribution.
func (d *Dataset) Profile() Profile {
	p := Profile{Total: len(d.Records), ByCount: map[int]int{}}
	for i := range d.Records {
		c := d.Records[i].Count
		p.ByCount[c]++
		if c == 0 {
			p.Empty++
		} else {
			p.Occupied++
		}
		if c > p.MaxPresent {
			p.MaxPresent = c
		}
	}
	return p
}

// Slice returns a view of the records in [from, to).
func (d *Dataset) Slice(from, to int) *Dataset {
	return &Dataset{Records: d.Records[from:to]}
}

// Thin returns a stride-subsampled view with at most max records (max<=0
// keeps everything). Striding preserves the temporal spread, unlike a
// prefix cut which would drop whole regimes.
func (d *Dataset) Thin(max int) *Dataset {
	if max <= 0 || d.Len() <= max {
		return d
	}
	stride := (d.Len() + max - 1) / max
	out := &Dataset{Records: make([]Record, 0, max)}
	for i := 0; i < d.Len(); i += stride {
		out.Records = append(out.Records, d.Records[i])
	}
	return out
}

// MapCSIColumns returns a deep copy of the dataset with every subcarrier's
// time series transformed by f (e.g. a denoising filter from
// internal/filter). f receives the subcarrier index and the full series and
// must return a series of equal length.
func (d *Dataset) MapCSIColumns(f func(k int, series []float64) []float64) *Dataset {
	out := &Dataset{Records: append([]Record(nil), d.Records...)}
	series := make([]float64, len(d.Records))
	for k := 0; k < csi.NumSubcarriers; k++ {
		for i := range d.Records {
			series[i] = d.Records[i].CSI[k]
		}
		mapped := f(k, series)
		if len(mapped) != len(series) {
			panic(fmt.Sprintf("dataset: MapCSIColumns transform changed length for a%d: %d != %d",
				k, len(mapped), len(series)))
		}
		for i := range out.Records {
			out.Records[i].CSI[k] = mapped[i]
		}
	}
	return out
}
