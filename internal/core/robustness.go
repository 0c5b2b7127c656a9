package core

import (
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/stream"
)

// robustnessIntensities are the fault-channel scale factors swept, from
// clean (0) to heavily degraded, on fault.DefaultProfile.
var robustnessIntensities = []float64{0, 0.25, 0.5, 1, 2}

// RobustnessPoint is one intensity level of the sweep.
type RobustnessPoint struct {
	Intensity float64
	// CSIOnly[fold] is the accuracy (%) of the CSI-only MLP run through
	// the fault channel and runtime. At intensity 0 it equals the Table IV
	// MLP/CSI column bit-for-bit.
	CSIOnly []float64
	// Pipeline[fold] is the accuracy (%) of the full degradation pipeline:
	// C+E primary detector with env imputation and CSI-only fallback, under
	// the fault profile's own intermittent env outages.
	Pipeline []float64
	// CSIAvg / PipeAvg are the per-intensity fold averages.
	CSIAvg, PipeAvg float64
	// DropRate is the measured frame-loss fraction across all folds.
	DropRate float64
	// FallbackFrac is the fraction of pipeline frames served by the
	// fallback detector.
	FallbackFrac float64
	// ImputedFrac / HeldFrac are the fractions of frames with bridged CSI
	// and held decisions.
	ImputedFrac, HeldFrac float64
	// TraceHash digests every fold's fault trace at this intensity; equal
	// hashes mean identical fault sequences (the determinism contract).
	TraceHash uint64
}

// RobustnessResult is the accuracy-vs-fault-rate curve of the sweep.
type RobustnessResult struct {
	Points []RobustnessPoint
}

// robustCell is one (intensity, fold) evaluation.
type robustCell struct {
	csiAcc, pipeAcc float64
	frames          int
	dropped         int
	fallback        int
	imputed         int
	held            int
	traceHash       uint64
}

// RunRobustness sweeps fault intensity over the test folds, evaluating two
// detector stacks through the fault channel and streaming runtime:
//
//   - the CSI-only MLP (the deployment's last line of defence), and
//   - the full pipeline — C+E primary with env imputation, and the CSI-only
//     fallback for frames whose env gap has lasted a watchdog interval.
//
// The env feed suffers the fault profile's intermittent outages and stale
// readings, scaled with the rest of the channel; a sensor dead for the
// whole stream reduces the pipeline to its fallback, which the stream
// package's tests pin. Both MLPs are the Table IV cells, so the clean
// (intensity 0) sweep reproduces the Table IV MLP accuracies bit-
// identically. The (intensity × fold) grid fans out over cfg.Workers
// goroutines; every cell derives its injector seed from its index alone,
// so results and fault traces are bit-identical for any worker count.
func RunRobustness(split *dataset.Split, cfg ExperimentConfig) (*RobustnessResult, error) {
	rows, err := runCells(split, cfg, []cell{
		baseCell(cfg, mlp, dataset.FeatCSI, occupancy),
		baseCell(cfg, mlp, dataset.FeatCSIEnv, occupancy),
	})
	if err != nil {
		return nil, err
	}
	csiDet := &Detector{Net: rows[0].net, Scaler: rows[0].scaler, Features: dataset.FeatCSI}
	cePrim := &Detector{Net: rows[1].net, Scaler: rows[1].scaler, Features: dataset.FeatCSIEnv}
	workers := parallel.Workers(cfg.Workers)
	profile := fault.DefaultProfile(0)

	nInt, nFold := len(robustnessIntensities), len(split.Folds)
	seeds := parallel.Seeds(cfg.Seed^0x526F6275, nInt*nFold) // "Robu"
	results := make([]robustCell, nInt*nFold)
	cellErrs := make([]error, nInt*nFold)
	parallel.ForEach(workers, nInt*nFold, func(ci int) {
		ii, fi := ci/nFold, ci%nFold
		intensity := robustnessIntensities[ii]
		fcfg := profile.Scale(intensity)
		fcfg.Seed = seeds[ci]
		results[ci], cellErrs[ci] = runRobustnessCell(split.Folds[fi].Thin(cfg.MaxEvalSamples), fcfg, csiDet, cePrim)
	})
	if err := firstErr(cellErrs); err != nil {
		return nil, err
	}

	res := &RobustnessResult{Points: make([]RobustnessPoint, nInt)}
	for ii := range res.Points {
		p := RobustnessPoint{
			Intensity: robustnessIntensities[ii],
			CSIOnly:   make([]float64, nFold),
			Pipeline:  make([]float64, nFold),
			TraceHash: 1469598103934665603,
		}
		var frames, dropped, fallback, imputed, held int
		for fi := 0; fi < nFold; fi++ {
			c := &results[ii*nFold+fi]
			p.CSIOnly[fi] = c.csiAcc
			p.Pipeline[fi] = c.pipeAcc
			p.CSIAvg += c.csiAcc
			p.PipeAvg += c.pipeAcc
			frames += c.frames
			dropped += c.dropped
			fallback += c.fallback
			imputed += c.imputed
			held += c.held
			p.TraceHash ^= c.traceHash
			p.TraceHash *= 1099511628211
		}
		p.CSIAvg /= float64(nFold)
		p.PipeAvg /= float64(nFold)
		if frames > 0 {
			p.DropRate = float64(dropped) / float64(frames)
			p.FallbackFrac = float64(fallback) / float64(frames)
			p.ImputedFrac = float64(imputed) / float64(frames)
			p.HeldFrac = float64(held) / float64(frames)
		}
		res.Points[ii] = p
	}
	return res, nil
}

// runRobustnessCell streams one fold through one fault configuration,
// scoring the CSI-only detector and the degradation pipeline on the same
// fault trace.
func runRobustnessCell(fold *dataset.Dataset, fcfg fault.Config, csiDet, cePrim *Detector) (robustCell, error) {
	var cell robustCell
	// Per-cell registries stand in for the removed Stats() snapshots: each
	// component writes its counters to a private Registry the cell reads
	// back after the stream ends. Registries are cheap (a map and a mutex)
	// and cells never share one, so the fan-out stays deterministic.
	injReg, pipeReg, csiReg := obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()
	fcfg.Observer = injReg
	inj := fault.NewInjector(fcfg)

	csiRT, err := stream.New(stream.Config{Primary: csiDet, Observer: csiReg})
	if err != nil {
		return cell, err
	}
	pipeRT, err := stream.New(stream.Config{
		Primary:        cePrim,
		Fallback:       csiDet,
		PrimaryUsesEnv: true,
		Observer:       pipeReg,
	})
	if err != nil {
		return cell, err
	}

	csiTrue := make([]int, 0, fold.Len())
	csiPred := make([]int, 0, fold.Len())
	pipePred := make([]int, 0, fold.Len())
	for i := range fold.Records {
		f := inj.Apply(fold.Records[i])
		truth := f.Truth.Label()
		dc := csiRT.Process(f)
		dp := pipeRT.Process(f)
		csiTrue = append(csiTrue, truth)
		csiPred = append(csiPred, dc.State)
		pipePred = append(pipePred, dp.State)
	}
	cell.csiAcc = 100 * stats.Accuracy(csiTrue, csiPred)
	cell.pipeAcc = 100 * stats.Accuracy(csiTrue, pipePred)

	count := func(reg *obs.Registry, name string) int {
		return int(reg.Counter(name, "").Value())
	}
	cell.frames = count(injReg, "fault_frames_total")
	cell.dropped = count(injReg, "fault_dropped_total")
	cell.fallback = count(pipeReg, "stream_fallback_frames_total")
	cell.imputed = count(pipeReg, "stream_csi_imputed_total")
	cell.held = count(pipeReg, "stream_held_frames_total") + count(csiReg, "stream_held_frames_total")
	cell.traceHash = inj.TraceHash()
	return cell, nil
}
