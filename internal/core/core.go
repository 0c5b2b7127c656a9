// Package core is the public face of the reproduction: the occupancy
// Detector (the paper's lightweight MLP of §IV-B wrapped with feature
// extraction and standardisation), model persistence, and the experiment
// runners that regenerate every table and figure of the evaluation section,
// the §V-D temperature and humidity regression among them
// (internal/core/experiments.go).
package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/atomicfile"
	"repro/internal/dataset"
	"repro/internal/linmodel"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// PaperHidden is the hidden topology of §IV-B: three hidden layers of 128,
// 256 and 128 units (whose per-layer parameter counts match the paper's
// 8 320 / 33 024 / 32 896 / 129 breakdown; see DESIGN.md §5).
var PaperHidden = []int{128, 256, 128}

// DetectorConfig controls detector training.
type DetectorConfig struct {
	Features dataset.FeatureSet
	Hidden   []int
	Train    nn.TrainConfig
	Seed     int64
}

// validHidden rejects non-positive layer widths (empty selects PaperHidden).
func validHidden(hidden []int) error {
	for i, h := range hidden {
		if h <= 0 {
			return fmt.Errorf("core: hidden layer %d has non-positive width %d", i, h)
		}
	}
	return nil
}

// Validate reports whether the configuration is trainable: the feature set
// must be a known one, hidden layer widths must be positive (an empty
// slice selects PaperHidden) and the training hyper-parameters must
// validate. TrainDetector calls it.
func (c DetectorConfig) Validate() error {
	if !c.Features.Valid() {
		return fmt.Errorf("core: unknown feature set %d", int(c.Features))
	}
	if err := validHidden(c.Hidden); err != nil {
		return err
	}
	return c.Train.Validate()
}

// DefaultDetectorConfig returns the paper's configuration: the C+E feature
// set, the 4-dense-layer MLP, 10 epochs at lr 5e-3 with AdamW decay.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		Features: dataset.FeatCSIEnv,
		Hidden:   append([]int(nil), PaperHidden...),
		Train:    nn.DefaultTrainConfig(),
		Seed:     1,
	}
}

// Detector is a trained occupancy classifier.
type Detector struct {
	Net      *nn.Network
	Scaler   *linmodel.Scaler
	Features dataset.FeatureSet
}

// TrainDetector fits the paper's MLP on the training fold: the grid's MLP
// occupancy cell on cfg.Features, trained on every record with cfg's
// topology, training config and init seed.
func TrainDetector(train *dataset.Dataset, cfg DetectorConfig) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if train.Len() == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	c := cell{feat: cfg.Features, task: occupancy, model: mlp, hidden: cfg.Hidden, std: true, train: cfg.Train, seed: cfg.Seed}
	if len(c.hidden) == 0 {
		c.hidden = PaperHidden
	}
	in, err := buildInputs(train, c, 0, nil)
	if err != nil {
		return nil, err
	}
	f, err := c.fit(&in)
	if err != nil {
		return nil, err
	}
	return &Detector{Net: f.net, Scaler: in.scaler, Features: cfg.Features}, nil
}

// Evaluate runs the detector over a fold and returns the confusion matrix.
func (d *Detector) Evaluate(ds *dataset.Dataset) stats.ConfusionMatrix {
	x, y := ds.Matrix(d.Features)
	xs := d.Scaler.Transform(x)
	pred := d.Net.PredictBinary(xs)
	var cm stats.ConfusionMatrix
	for i := range y {
		cm.Observe(y[i], pred[i])
	}
	return cm
}

// PredictRecord classifies one record, returning P(occupied) and the label.
// This is the direct (one record, one forward) reference path; a fleet of
// feeds sharing one model should go through DetectorEngine instead, which
// produces bit-identical results with no per-call garbage.
func (d *Detector) PredictRecord(r *dataset.Record) (float64, int) {
	row := dataset.FeatureRow(r, d.Features)
	d.Scaler.TransformRow(row)
	x := tensor.FromSlice(1, len(row), row)
	var probs [1]float64
	d.Net.PredictProbsInto(probs[:], x)
	if p := probs[0]; p >= 0.5 {
		return p, 1
	}
	return probs[0], 0
}

// --- persistence -----------------------------------------------------------

const bundleMagic = 0x4F434244 // "OCBD"

// Save writes the detector (scaler + network) to w.
func (d *Detector) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, uint32(bundleMagic)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int32(d.Features)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(d.Scaler.Mean))); err != nil {
		return err
	}
	for _, v := range d.Scaler.Mean {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, v := range d.Scaler.Std {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := d.Net.Save(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadDetector reads a detector bundle written by Save.
func LoadDetector(r io.Reader) (*Detector, error) {
	br := bufio.NewReader(r)
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != bundleMagic {
		return nil, fmt.Errorf("core: bad detector bundle magic 0x%08X", magic)
	}
	var feat int32
	if err := binary.Read(br, binary.LittleEndian, &feat); err != nil {
		return nil, err
	}
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("core: implausible scaler width %d", n)
	}
	sc := &linmodel.Scaler{Mean: make([]float64, n), Std: make([]float64, n)}
	for i := range sc.Mean {
		if err := binary.Read(br, binary.LittleEndian, &sc.Mean[i]); err != nil {
			return nil, err
		}
	}
	for i := range sc.Std {
		if err := binary.Read(br, binary.LittleEndian, &sc.Std[i]); err != nil {
			return nil, err
		}
		if sc.Std[i] == 0 || math.IsNaN(sc.Std[i]) {
			return nil, fmt.Errorf("core: corrupt scaler std at %d", i)
		}
	}
	if !dataset.FeatureSet(feat).Valid() {
		return nil, fmt.Errorf("core: bundle has unknown feature set %d", feat)
	}
	net, err := nn.Load(br)
	if err != nil {
		return nil, err
	}
	d := &Detector{Net: net, Scaler: sc, Features: dataset.FeatureSet(feat)}
	if d.Features.Dim() != int(n) || net.InputDim() != int(n) {
		return nil, fmt.Errorf("core: bundle dimensions disagree (feat=%v scaler=%d net=%d)",
			d.Features, n, net.InputDim())
	}
	return d, nil
}

// SaveFile writes the bundle to path atomically: an interrupted or failed
// save leaves whatever path held before.
func (d *Detector) SaveFile(path string) error {
	return atomicfile.Write(path, d.Save)
}

// LoadDetectorFile reads a detector bundle from path.
func LoadDetectorFile(path string) (*Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDetector(f)
}
