// Realtime: attach a trained detector to a live 20 Hz CSI stream and track
// occupancy transitions with hysteresis smoothing, plus continuous online
// fine-tuning — the deployment mode §V-B argues for ("an MLP model can be
// trained continuously ... online training").
//
// The stream runs through the fault channel and the degradation-aware
// runtime (internal/stream), so the demo survives bursty frame loss with
// hold-last-value imputation. Each generated record goes through the fault
// channel, the runtime's Process and the online step inside
// dataset.Stream's callback: one loop, no queue. Ctrl-C ends that loop
// (dataset.Stream returns ctx.Err()) and exits gracefully: the online-tuned
// network is checkpointed (resumable with nn.LoadCheckpoint), stats are
// flushed and the exit code is 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/tensor"
)

func main() {
	ckptPath := flag.String("ckpt", "realtime.ckpt", "checkpoint path for the online-tuned network (empty: don't save)")
	intensity := flag.Float64("fault", 0.5, "fault-channel intensity (0 = clean)")
	flag.Parse()
	if *intensity < 0 {
		log.Fatalf("-fault must be non-negative (got %g)", *intensity)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Train on one synthetic day.
	gcfg := dataset.DefaultGenConfig(0.5, 3)
	gcfg.Duration = 24 * time.Hour
	day, err := dataset.Generate(gcfg)
	if err != nil {
		log.Fatal(err)
	}
	dcfg := core.DefaultDetectorConfig()
	dcfg.Features = dataset.FeatCSI // CSI-only: no env sensor at run time
	dcfg.Train.Epochs = 5
	det, err := core.TrainDetector(day, dcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detector: %v\n", det.Net)

	// The runtime debounces decisions (1 s of agreement at 20 Hz before a
	// flip) and bridges short fault gaps by holding the last CSI vector.
	// The registry collects the fault_*/stream_* counters for the final
	// stats report.
	reg := obs.NewRegistry()
	rt, err := stream.New(stream.Config{
		Primary:      det,
		SmootherNeed: 20,
		MaxHoldGap:   8,
		Observer:     reg,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Stream a different seed (an unseen day) at the paper's 20 Hz around
	// the morning arrival window, through the fault channel.
	scfg := dataset.DefaultGenConfig(20, 99)
	scfg.Start = dataset.PaperStart.Add(17*time.Hour + 30*time.Minute) // Jan 5, 08:38
	scfg.Duration = 20 * time.Minute

	fcfg := fault.DefaultProfile(99).Scale(*intensity)
	fcfg.Observer = reg
	inj := fault.NewInjector(fcfg)

	opt := nn.NewAdamW(1e-4, 0)
	var onlineBatchX []float64
	var onlineBatchY []float64
	var n, correct, flips int

	err = dataset.Stream(ctx, scfg, func(r dataset.Record) error {
		f := inj.Apply(r)
		d := rt.Process(f)
		if d.Flipped {
			flips++
			label := "EMPTY"
			if d.State == 1 {
				label = "OCCUPIED"
			}
			fmt.Printf("%s  room is now %s (%d people actually present)\n",
				f.Rec.Time.Format("15:04:05.00"), label, f.Truth.Count)
		}
		n++
		if d.State == f.Truth.Label() {
			correct++
		}

		// Online fine-tuning: every 256 delivered samples, one incremental
		// step on the freshly observed data (self-labelled by ground truth
		// here; a deployment would use sporadic annotations). Dropped frames
		// carry no CSI and are skipped.
		if f.Dropped {
			return nil
		}
		row := dataset.FeatureRow(&f.Rec, det.Features)
		det.Scaler.TransformRow(row)
		onlineBatchX = append(onlineBatchX, row...)
		onlineBatchY = append(onlineBatchY, float64(f.Truth.Label()))
		if len(onlineBatchY) == 256 {
			xb := tensor.FromSlice(256, det.Features.Dim(), onlineBatchX)
			yb := tensor.FromSlice(256, 1, onlineBatchY)
			det.Net.FitOnline(xb, yb, nn.BCEWithLogits{}, opt, 5)
			onlineBatchX = nil
			onlineBatchY = nil
		}
		return nil
	})
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		log.Fatal(err)
	}
	if interrupted {
		fmt.Println("\ninterrupted — saving checkpoint and flushing stats")
	}
	if *ckptPath != "" {
		if err := nn.SaveCheckpoint(*ckptPath, det.Net, opt, 0); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("online-tuned network checkpointed to %s\n", *ckptPath)
	}

	count := func(name string) int64 { return reg.Counter(name, "").Value() }
	fmt.Printf("\nstreamed %d samples at 20 Hz: smoothed accuracy %.2f%%, %d state transitions\n",
		n, 100*float64(correct)/float64(maxi(n, 1)), flips)
	if *intensity > 0 {
		frames, dropped := count("fault_frames_total"), count("fault_dropped_total")
		fmt.Printf("faults survived: %.1f%% frames dropped, %d CSI gaps bridged, %d decisions held\n",
			100*float64(dropped)/float64(maxi(int(frames), 1)),
			count("stream_csi_imputed_total"), count("stream_held_frames_total"))
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
