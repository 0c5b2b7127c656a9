package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/framelog"
	"repro/pkg/occupancy"
)

// The crash gate proves the durability contract end to end, against a real
// process death — not a polite shutdown:
//
//  1. a child process serves with a durable frame log;
//  2. the parent streams frames at it and SIGKILLs it mid-stream;
//  3. the parent reads the child's log offline: every acknowledged frame
//     must be there (logged >= acked, in send order, bit for bit), and
//     whatever the dead child streamed must match the replay;
//  4. a fresh child recovers from the same log — from the snapshot the last
//     segment seal wrote plus the frames logged since, or the whole log —
//     and its first visible decision must be bit-identical to the replay of
//     the logged frames;
//  5. the stream continues through the restart, and every post-recovery
//     decision must match the uninterrupted replay exactly;
//  6. that child is drained (SIGTERM), which snapshots the feed, and a third
//     child boots from the same log: its /metrics must show every logged
//     frame restored and none replayed, and its first decision and a
//     further stretch of the stream must match the replay bit for bit.
//
// The child is this same binary re-exec'd with -crash-child, so the gate
// needs no second build product.

// crashReadyPrefix is the line the child prints once its listener is bound;
// the parent scans for it to learn the URL.
const crashReadyPrefix = "loadgen-child: serving "

// runCrashChild is the -crash-child entry point: a durable node on an
// ephemeral port, serving until SIGKILLed or, on SIGTERM, drained.
func runCrashChild(model, logDir string) error {
	bundle, err := os.ReadFile(model)
	if err != nil {
		return err
	}
	term, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	n, err := bootNode(bundle, occupancy.ServeConfig{
		// A subscriber buffer large enough for the whole run makes "no
		// events dropped" a hard guarantee, so the parent's bit-identity
		// sweep sees every decision.
		StreamBuffer: 1 << 16,
		Durability: occupancy.DurabilityConfig{
			Dir:      logDir,
			Fsync:    framelog.FsyncInterval,
			Interval: 5 * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}
	fmt.Println(crashReadyPrefix + n.url)
	<-term.Done()
	return n.stop()
}

// crashChild is one life of the child server process.
type crashChild struct {
	url string
	cl  *occupancy.Client
	// kill SIGKILLs and reaps the child; term SIGTERMs it and requires its
	// drain to end in a clean exit. The first call of either decides, and
	// later calls repeat its answer, so a deferred kill backs up both.
	kill, term func() error
}

// startCrashChild launches the child server process and binds a client to
// its base URL.
func startCrashChild(model, logDir string) (*crashChild, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-crash-child", "-model", model, "-crash-log-dir", logDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var once sync.Once
	var endErr error
	end := func(sig os.Signal) func() error {
		return func() error {
			once.Do(func() {
				endErr = cmd.Process.Signal(sig) // SIGKILL: no handler runs, no flush, no drain
				if waitErr := cmd.Wait(); endErr == nil && sig == syscall.SIGTERM {
					endErr = waitErr // a drained child exits 0
				}
			})
			return endErr
		}
	}
	ch := &crashChild{kill: end(os.Kill), term: end(syscall.SIGTERM)}
	urlc := make(chan string, 1)
	go func() {
		// The ready line is all the child prints on stdout; a child that died
		// first yields an empty URL, which NewClient refuses.
		line, _ := bufio.NewReader(out).ReadString('\n')
		urlc <- strings.TrimSpace(strings.TrimPrefix(line, crashReadyPrefix))
	}()
	// The child announces itself after binding its listener, so the first
	// request needs no readiness poll: it waits in the accept queue.
	select {
	case ch.url = <-urlc:
		ch.cl, err = newLoadClient(ch.url, 1)
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("no address announced within 30s")
	}
	if err != nil {
		_ = ch.kill()
		return nil, fmt.Errorf("crash: child server did not come up: %w", err)
	}
	return ch, nil
}

// runCrash drives the kill-and-recover scenario on one feed. total is the
// planned frame count; the kill lands once half of it is acknowledged, and
// the third life streams a further quarter.
func runCrash(ctx context.Context, fx fixture, total int) error {
	tmp, err := os.MkdirTemp("", "loadgen-crash-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	model := filepath.Join(tmp, "detector.bin")
	if err := os.WriteFile(model, fx.bundle, 0o600); err != nil {
		return err
	}
	logDir := filepath.Join(tmp, "framelog")
	const id = "crash-room"

	// Phase 1: serve and stream until the kill threshold.
	childA, err := startCrashChild(model, logDir)
	if err != nil {
		return err
	}
	defer childA.kill()
	ref, err := activeSpan(ctx, childA.cl)
	if err != nil {
		return err
	}
	fmt.Printf("loadgen: crash: child A serving bundle %.12s…, logging to %s\n", ref.version, logDir)
	runA, err := openFeed(ctx, childA.cl, id, 0, fx.recs)
	if err != nil {
		return err
	}
	var sendErr error
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		sendErr = runA.send(ctx, 0, total)
	}()
	for runA.acked.Load() < int64(total/2) {
		select {
		case <-sent:
			if runA.acked.Load() < int64(total/2) {
				return fmt.Errorf("crash: the stream ended before the kill threshold: %v", sendErr)
			}
		case <-time.After(time.Millisecond):
		}
	}
	if err := childA.kill(); err != nil {
		return err
	}
	// The send either finished just ahead of the kill or failed on it; what
	// counts is the acknowledged prefix it leaves behind.
	<-sent
	acked := int(runA.acked.Load())
	eventsA := runA.wait()
	fmt.Printf("loadgen: crash: SIGKILL after %d acknowledged frames, %d decisions streamed\n", acked, len(eventsA))

	// Phase 2: the log, read offline, is the ground truth of what the dead
	// server accepted. Every acknowledged frame must be in it, in send
	// order, bit for bit.
	logged := 0
	_, err = framelog.Replay(logDir, id, -1, func(f fault.Frame) error {
		want := refFrame(fx.recs, 0, logged)
		if f.Index != logged || !f.Rec.Time.Equal(want.Rec.Time) ||
			math.Float64bits(f.Rec.Temp) != math.Float64bits(want.Rec.Temp) ||
			math.Float64bits(f.Rec.Humidity) != math.Float64bits(want.Rec.Humidity) ||
			f.Rec.CSI != want.Rec.CSI {
			return fmt.Errorf("crash: logged frame %d does not match what was sent", logged)
		}
		logged++
		return nil
	})
	if err != nil {
		return err
	}
	if logged < acked {
		return fmt.Errorf("crash: LOST FRAMES: %d acknowledged, only %d logged", acked, logged)
	}
	fmt.Printf("loadgen: crash: log holds %d frames (>= %d acked), all bit-faithful\n", logged, acked)
	// Whatever the dead child managed to stream was decided from logged
	// frames, so it is a prefix of the replay.
	if len(eventsA) > logged {
		return fmt.Errorf("crash: %d decisions streamed but only %d frames logged", len(eventsA), logged)
	}
	if err := runA.verify(eventsA, 0, len(eventsA), []span{ref}); err != nil {
		return fmt.Errorf("crash: before the kill: %w", err)
	}

	// Phase 3: a fresh child recovers from the log alone, to the decision
	// the uninterrupted replay holds after the last logged frame.
	childB, err := startCrashChild(model, logDir)
	if err != nil {
		return err
	}
	defer childB.kill()
	// NewServer recovers the log before it returns and the child announces
	// itself after that, so the recovered decision is there to read at once.
	rec, ok, err := childB.cl.Occupancy(ctx, id)
	if err != nil || !ok {
		return fmt.Errorf("crash: child B holds no recovered decision (ok=%v): %v", ok, err)
	}
	if err := runA.verify([]occupancy.Decision{rec}, logged-1, 1, []span{ref}); err != nil {
		return fmt.Errorf("crash: recovered state: %w", err)
	}
	fmt.Printf("loadgen: crash: recovered to frame %d bit-identical\n", logged-1)

	// Phase 4: the stream continues across the crash as if it never
	// happened — every remaining decision bit-identical to the replay.
	runB, err := openFeed(ctx, childB.cl, id, 0, fx.recs)
	if err != nil {
		return err
	}
	if err := runB.send(ctx, logged, total); err != nil {
		return fmt.Errorf("crash: continuation: %w", err)
	}
	// A clean drain closes the feed, which ends its stream and snapshots it.
	if err := childB.term(); err != nil {
		return fmt.Errorf("crash: child B did not drain cleanly: %w", err)
	}
	if err := runB.verify(runB.wait(), logged, total-logged, []span{ref}); err != nil {
		return fmt.Errorf("crash: after recovery: %w", err)
	}
	fmt.Printf("loadgen: crash: %d post-recovery decisions bit-identical; zero acknowledged frames lost\n", total-logged)

	// Phase 5: after a clean drain nothing is left to replay — the third
	// child restores every logged frame's state from the snapshot — and the
	// stream still goes on exactly as the uninterrupted replay does.
	childC, err := startCrashChild(model, logDir)
	if err != nil {
		return err
	}
	defer childC.kill()
	if recovered, restored, err := recoveryCounts(childC.url); err != nil || recovered != float64(total) || restored != recovered {
		return fmt.Errorf("crash: child C recovered %v frames, %v of them restored (%v); want all %d restored and none replayed",
			recovered, restored, err, total)
	}
	if rec, ok, err = childC.cl.Occupancy(ctx, id); err != nil || !ok {
		return fmt.Errorf("crash: child C holds no restored decision (ok=%v): %v", ok, err)
	}
	if err := runA.verify([]occupancy.Decision{rec}, total-1, 1, []span{ref}); err != nil {
		return fmt.Errorf("crash: restored state: %w", err)
	}
	more := total + total/4
	runC, err := openFeed(ctx, childC.cl, id, 0, fx.recs)
	if err != nil {
		return err
	}
	if err := runC.send(ctx, total, more); err != nil {
		return fmt.Errorf("crash: third life: %w", err)
	}
	eventsC, err := runC.close(ctx)
	if err != nil {
		return err
	}
	if err := runC.verify(eventsC, total, more-total, []span{ref}); err != nil {
		return fmt.Errorf("crash: after the clean restart: %w", err)
	}
	if err := childC.term(); err != nil {
		return fmt.Errorf("crash: child C did not drain cleanly: %w", err)
	}
	fmt.Printf("loadgen: crash: clean restart restored all %d frames, replayed none; %d further decisions bit-identical\n", total, more-total)
	return nil
}
