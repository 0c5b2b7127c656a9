package dataset

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/csi"
	"repro/internal/stats"
)

// shortConfig generates a quick trace: 2 hours at 1 Hz starting mid-workday.
func shortConfig() GenConfig {
	cfg := DefaultGenConfig(1, 7)
	cfg.Start = time.Date(2022, 1, 5, 9, 0, 0, 0, time.UTC)
	cfg.Duration = 2 * time.Hour
	return cfg
}

func mustGenerate(t *testing.T, cfg GenConfig) *Dataset {
	t.Helper()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateShape(t *testing.T) {
	d := mustGenerate(t, shortConfig())
	if d.Len() != 7200 {
		t.Fatalf("want 7200 records, got %d", d.Len())
	}
	// Timestamps strictly increasing at 1 s.
	for i := 1; i < 100; i++ {
		if d.Records[i].Time.Sub(d.Records[i-1].Time) != time.Second {
			t.Fatal("bad cadence")
		}
	}
	for i := range d.Records {
		r := &d.Records[i]
		if r.Count < 0 || r.Count > 6 {
			t.Fatalf("count %d", r.Count)
		}
		if r.Temp < -10 || r.Temp > 60 || r.Humidity < 0 || r.Humidity > 100 {
			t.Fatalf("implausible env: %g°C %g%%", r.Temp, r.Humidity)
		}
		for _, a := range r.CSI {
			if math.IsNaN(a) || a < 0 {
				t.Fatal("bad CSI amplitude")
			}
		}
	}
}

func TestRecordLabelAndTime(t *testing.T) {
	r := Record{Count: 0, Time: time.Date(2022, 1, 5, 1, 2, 3, 0, time.UTC)}
	if r.Label() != 0 {
		t.Fatal("empty label")
	}
	r.Count = 3
	if r.Label() != 1 {
		t.Fatal("occupied label")
	}
	if r.SecondsOfDay() != 3723 {
		t.Fatalf("SecondsOfDay got %g", r.SecondsOfDay())
	}
}

func TestFeatureSets(t *testing.T) {
	r := Record{Temp: 21.5, Humidity: 43}
	for k := range r.CSI {
		r.CSI[k] = float64(k)
	}
	if FeatCSI.Dim() != 64 || FeatEnv.Dim() != 2 || FeatCSIEnv.Dim() != 66 || FeatTime.Dim() != 1 {
		t.Fatal("dims")
	}
	row := FeatureRow(&r, FeatCSIEnv)
	if row[0] != 0 || row[63] != 63 || row[64] != 21.5 || row[65] != 43 {
		t.Fatalf("C+E row wrong: %v", row[60:])
	}
	if FeatureRow(&r, FeatEnv)[0] != 21.5 {
		t.Fatal("Env row")
	}
	if got := FeatCSI.String() + FeatEnv.String() + FeatCSIEnv.String() + FeatTime.String(); got != "CSIEnvC+ETime" {
		t.Fatalf("names %q", got)
	}
}

func TestMatrixAndTargets(t *testing.T) {
	d := mustGenerate(t, shortConfig())
	x, y := d.Matrix(FeatCSIEnv)
	if x.Rows != d.Len() || x.Cols != 66 || len(y) != d.Len() {
		t.Fatal("matrix shape")
	}
	// Labels match records.
	for i := 0; i < 50; i++ {
		if y[i] != d.Records[i].Label() {
			t.Fatal("label mismatch")
		}
		if x.At(i, 64) != d.Records[i].Temp {
			t.Fatal("temp feature mismatch")
		}
	}
}

func TestColumn(t *testing.T) {
	d := mustGenerate(t, shortConfig())
	for _, name := range []string{"temp", "humidity", "occupancy", "count", "time", "a0", "a63"} {
		col, err := d.Column(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(col) != d.Len() {
			t.Fatalf("%s length", name)
		}
	}
	if _, err := d.Column("a64"); err == nil {
		t.Fatal("a64 must be rejected")
	}
	if _, err := d.Column("bogus"); err == nil {
		t.Fatal("bogus must be rejected")
	}
}

func TestProfileCountsConsistent(t *testing.T) {
	d := mustGenerate(t, shortConfig())
	p := d.Profile()
	if p.Total != d.Len() || p.Empty+p.Occupied != p.Total {
		t.Fatal("profile totals")
	}
	sum := 0
	for _, v := range p.ByCount {
		sum += v
	}
	if sum != p.Total {
		t.Fatal("ByCount sums")
	}
	// Mid-workday: mostly occupied.
	if float64(p.Occupied)/float64(p.Total) < 0.5 {
		t.Fatalf("workday occupancy too low: %d/%d", p.Occupied, p.Total)
	}
}

func TestSplitFolds(t *testing.T) {
	d := mustGenerate(t, shortConfig())
	s, err := d.PaperSplit()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Folds) != 5 {
		t.Fatal("want 5 folds")
	}
	total := s.Train.Len()
	for _, f := range s.Folds {
		total += f.Len()
	}
	if total != d.Len() {
		t.Fatal("folds must partition the dataset")
	}
	if math.Abs(float64(s.Train.Len())/float64(d.Len())-0.7) > 0.01 {
		t.Fatalf("train fraction %g", float64(s.Train.Len())/float64(d.Len()))
	}
	// Temporal ordering: each fold starts after the previous ends.
	prevEnd := s.Train.Records[s.Train.Len()-1].Time
	for _, f := range s.Folds {
		if !f.Records[0].Time.After(prevEnd) {
			t.Fatal("folds must be temporally ordered")
		}
		prevEnd = f.Records[f.Len()-1].Time
	}
	// Error cases.
	if _, err := d.SplitFolds(0, 5); err == nil {
		t.Fatal("frac 0")
	}
	if _, err := d.SplitFolds(0.7, 0); err == nil {
		t.Fatal("0 folds")
	}
	tiny := &Dataset{Records: d.Records[:3]}
	if _, err := tiny.SplitFolds(0.7, 5); err == nil {
		t.Fatal("tiny dataset must fail to split 5 ways")
	}
}

func TestFoldStatsAndTableIII(t *testing.T) {
	d := mustGenerate(t, shortConfig())
	s, err := d.PaperSplit()
	if err != nil {
		t.Fatal(err)
	}
	rows := s.TableIII()
	if len(rows) != 6 {
		t.Fatal("Table III must have 6 rows")
	}
	for _, row := range rows {
		if row.Empty+row.Occupied == 0 {
			t.Fatalf("fold %s empty stats", row.Name)
		}
		if row.TempMin > row.TempMax || row.HumMin > row.HumMax {
			t.Fatalf("fold %s min/max inverted", row.Name)
		}
		if row.End.Before(row.Start) {
			t.Fatalf("fold %s time range inverted", row.Name)
		}
	}
	empty := (&Dataset{}).Stats("x")
	if empty.Empty != 0 || empty.Occupied != 0 {
		t.Fatal("empty dataset stats")
	}
}

func TestCSVRoundtrip(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 3 * time.Minute
	d := mustGenerate(t, cfg)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Fatalf("roundtrip length %d vs %d", back.Len(), d.Len())
	}
	for i := range d.Records {
		a, b := &d.Records[i], &back.Records[i]
		if !a.Time.Truncate(time.Millisecond).Equal(b.Time) {
			t.Fatal("time mismatch")
		}
		if a.Count != b.Count {
			t.Fatal("count mismatch")
		}
		if math.Abs(a.Temp-b.Temp) > 1e-3 || math.Abs(a.Humidity-b.Humidity) > 1e-3 {
			t.Fatal("env mismatch")
		}
		for k := range a.CSI {
			if math.Abs(a.CSI[k]-b.CSI[k]) > 1e-6 {
				t.Fatal("CSI mismatch")
			}
		}
	}
}

func TestReadCSVRejectsCorruption(t *testing.T) {
	head := strings.Join(Header(), ",")
	if _, err := ReadCSV(strings.NewReader("bogus\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	// Inconsistent occupancy vs count.
	row := make([]string, csi.NumSubcarriers+6)
	row[0] = "2022-01-04T15:08:45.550"
	for k := 0; k < csi.NumSubcarriers; k++ {
		row[1+k] = "0.5"
	}
	row[csi.NumSubcarriers+1] = "21.0"
	row[csi.NumSubcarriers+2] = "40"
	row[csi.NumSubcarriers+3] = "0" // says empty...
	row[csi.NumSubcarriers+4] = "2" // ...but two people present
	row[csi.NumSubcarriers+5] = "0"
	if _, err := ReadCSV(strings.NewReader(head + "\n" + strings.Join(row, ",") + "\n")); err == nil {
		t.Fatal("inconsistent row accepted")
	}
}

func TestStreamErrorsPropagate(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = time.Minute
	wantErr := false
	err := Stream(context.Background(), cfg, func(Record) error {
		wantErr = true
		return errStop
	})
	if err != errStop || !wantErr {
		t.Fatalf("stream error not propagated: %v", err)
	}
	bad := cfg
	bad.Rate = 0
	if err := Stream(context.Background(), bad, func(Record) error { return nil }); err == nil {
		t.Fatal("rate 0 accepted")
	}
	bad = cfg
	bad.Duration = 0
	if err := Stream(context.Background(), bad, func(Record) error { return nil }); err == nil {
		t.Fatal("duration 0 accepted")
	}
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }

func TestGenerateDeterministic(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 10 * time.Minute
	a := mustGenerate(t, cfg)
	b := mustGenerate(t, cfg)
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatal("generation must be deterministic")
		}
	}
}

// TestPaperScenarioShape runs a thinned 74-hour trace and checks the fold
// structure matches Table III qualitatively: folds 1–3 empty, fold 4 mixed,
// fold 5 fully occupied and hot.
func TestPaperScenarioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("74 h trace")
	}
	cfg := DefaultGenConfig(1.0/30, 11) // one sample every 30 s
	d := mustGenerate(t, cfg)
	s, err := d.PaperSplit()
	if err != nil {
		t.Fatal(err)
	}
	rows := s.TableIII()
	// Folds 1–3: nights, fully empty.
	for i := 1; i <= 3; i++ {
		if rows[i].Occupied != 0 {
			t.Fatalf("fold %d should be empty, %d occupied", i, rows[i].Occupied)
		}
	}
	// Fold 4: mixed with both classes present.
	if rows[4].Empty == 0 || rows[4].Occupied == 0 {
		t.Fatalf("fold 4 should be mixed: %+v", rows[4])
	}
	// Fold 5: fully occupied and boosted warm.
	if rows[5].Empty != 0 {
		t.Fatalf("fold 5 should be fully occupied: %+v", rows[5])
	}
	if rows[5].TempMax < 26 {
		t.Fatalf("fold 5 should be hot, max %g", rows[5].TempMax)
	}
	// Training fold has both classes and substantial volume.
	if rows[0].Empty == 0 || rows[0].Occupied == 0 {
		t.Fatal("train fold must be mixed")
	}
	// Table II shape: empty majority overall (paper: 63.2% empty).
	p := d.Profile()
	frac := float64(p.Empty) / float64(p.Total)
	if frac < 0.45 || frac > 0.8 {
		t.Fatalf("empty fraction %g outside plausible band", frac)
	}
	// Environment correlations (§V-A): T–H positive, T–occ positive.
	temp, _ := d.Column("temp")
	hum, _ := d.Column("humidity")
	occ, _ := d.Column("occupancy")
	if r := stats.Pearson(temp, hum); r < 0.1 {
		t.Fatalf("T–H correlation %g too weak", r)
	}
	if r := stats.Pearson(temp, occ); r < 0.1 {
		t.Fatalf("T–occ correlation %g too weak", r)
	}
	if r := stats.Pearson(hum, occ); r < 0.05 {
		t.Fatalf("H–occ correlation %g too weak", r)
	}
}

func TestActivityLabels(t *testing.T) {
	cases := []struct {
		count, walking, want int
	}{
		{0, 0, ActivityEmpty},
		{2, 0, ActivityStatic},
		{3, 1, ActivityMotion},
		{1, 1, ActivityMotion},
	}
	for _, c := range cases {
		r := Record{Count: c.count, Walking: c.walking}
		if got := r.ActivityLabel(); got != c.want {
			t.Fatalf("count=%d walking=%d: got %d want %d", c.count, c.walking, got, c.want)
		}
	}
	d := mustGenerate(t, shortConfig())
	seen := map[int]bool{}
	for i := range d.Records {
		l := d.Records[i].ActivityLabel()
		if l < 0 || l >= NumActivities {
			t.Fatalf("label %d out of range", l)
		}
		seen[l] = true
	}
	// A mid-workday trace must contain both static and motion samples.
	if !seen[ActivityStatic] || !seen[ActivityMotion] {
		t.Fatalf("activity diversity missing: %v", seen)
	}
}

func TestCountLabels(t *testing.T) {
	r := Record{Count: 6}
	if r.CountLabel(5) != 4 {
		t.Fatalf("clamp got %d", r.CountLabel(5))
	}
	r.Count = 2
	if r.CountLabel(5) != 2 {
		t.Fatal("pass-through")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for <2 classes")
		}
	}()
	r.CountLabel(1)
}

func TestCSVRoundtripWalking(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 2 * time.Minute
	d := mustGenerate(t, cfg)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Records {
		if d.Records[i].Walking != back.Records[i].Walking {
			t.Fatal("walking column lost")
		}
	}
}

func TestFeatureSetTextMarshal(t *testing.T) {
	for _, f := range []FeatureSet{FeatCSI, FeatEnv, FeatCSIEnv, FeatTime} {
		b, err := f.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back FeatureSet
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != f {
			t.Fatalf("%v roundtrip → %v", f, back)
		}
	}
	var f FeatureSet
	if err := f.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("bogus accepted")
	}
}

func TestMapCSIColumns(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 2 * time.Minute
	d := mustGenerate(t, cfg)
	doubled := d.MapCSIColumns(func(_ int, s []float64) []float64 {
		out := make([]float64, len(s))
		for i, v := range s {
			out[i] = 2 * v
		}
		return out
	})
	if doubled.Len() != d.Len() {
		t.Fatal("length changed")
	}
	for i := range d.Records {
		for k := range d.Records[i].CSI {
			if doubled.Records[i].CSI[k] != 2*d.Records[i].CSI[k] {
				t.Fatal("transform not applied")
			}
		}
		// Non-CSI fields preserved; original untouched.
		if doubled.Records[i].Temp != d.Records[i].Temp || doubled.Records[i].Count != d.Records[i].Count {
			t.Fatal("metadata lost")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length change")
		}
	}()
	d.MapCSIColumns(func(_ int, s []float64) []float64 { return s[:1] })
}

// TestGenerateRejectsNonFiniteParameters: a NaN absorption once validated
// and generated NaN CSI, an infinite wall leak NaN temperatures. Both must
// now fail up front, naming the field.
func TestGenerateRejectsNonFiniteParameters(t *testing.T) {
	for name, mutate := range map[string]func(*GenConfig){
		"HumidityAbsorption": func(c *GenConfig) { c.CSI.HumidityAbsorption = math.NaN() },
		"WallLeak":           func(c *GenConfig) { c.Env.WallLeak = math.Inf(1) },
	} {
		cfg := shortConfig()
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Generate error %v, want one naming the field", name, err)
		}
	}
}

// TestNonPositiveRateRefused: DefaultGenConfig once turned a rate ≤ 0 into
// 20 Hz, so a zero or negative -rate generated the 74 h trace at the paper's
// hardware rate, and Validate called NaN "too high". Every non-positive rate
// now reaches Validate as given and is refused as non-positive.
func TestNonPositiveRateRefused(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN()} {
		err := DefaultGenConfig(rate, 1).Validate()
		if err == nil || !strings.Contains(err.Error(), "non-positive sample rate") {
			t.Errorf("rate %g: Validate error %v, want the non-positive-rate error", rate, err)
		}
	}
}
