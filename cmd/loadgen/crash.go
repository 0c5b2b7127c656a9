package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
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
//  4. a fresh child recovers from the same log; its first visible decision
//     must be bit-identical to the replay of the logged frames;
//  5. the stream continues through the restart, and every post-recovery
//     decision must match the uninterrupted replay exactly.
//
// The child is this same binary re-exec'd with -crash-child, so the gate
// needs no second build product.

// crashReadyPrefix is the line the child prints once its listener is bound;
// the parent scans for it to learn the URL.
const crashReadyPrefix = "loadgen-child: serving "

// runCrashChild is the -crash-child entry point: a durable node on an
// ephemeral port, serving until killed.
func runCrashChild(model, logDir string) error {
	bundle, err := os.ReadFile(model)
	if err != nil {
		return err
	}
	n, err := bootNode(bundle, occupancy.ServeConfig{
		// A subscriber buffer large enough for the whole run makes "no
		// events dropped" a hard guarantee, so the parent's bit-identity
		// sweep sees every decision.
		StreamBuffer: 1 << 16,
		Durability: occupancy.DurabilityConfig{
			Dir:           logDir,
			Fsync:         framelog.FsyncInterval,
			FsyncInterval: 5 * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}
	fmt.Println(crashReadyPrefix + n.url)
	select {} // the parent's SIGKILL is the only way out
}

// startCrashChild launches the child server process and returns a client
// bound to its base URL, plus kill: SIGKILL and reap, once — later calls
// repeat the first answer, so a deferred kill backs up the planned one.
func startCrashChild(model, logDir string) (kill func() error, cl *occupancy.Client, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(self, "-crash-child", "-model", model, "-crash-log-dir", logDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	kill = sync.OnceValue(func() error {
		err := cmd.Process.Kill() // SIGKILL: no handler runs, no flush, no drain
		_ = cmd.Wait()
		return err
	})
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
	case url := <-urlc:
		cl, err = newLoadClient(url, 1)
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("no address announced within 30s")
	}
	if err != nil {
		_ = kill()
		return nil, nil, fmt.Errorf("crash: child server did not come up: %w", err)
	}
	return kill, cl, nil
}

// runCrash drives the kill-and-recover scenario on one feed. total is the
// planned frame count; the kill lands once half of it is acknowledged.
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
	killA, clA, err := startCrashChild(model, logDir)
	if err != nil {
		return err
	}
	defer killA()
	ref, err := activeSpan(ctx, clA)
	if err != nil {
		return err
	}
	fmt.Printf("loadgen: crash: child A serving bundle %.12s…, logging to %s\n", ref.version, logDir)
	runA, err := openFeed(ctx, clA, id, 0, fx.recs)
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
	if err := killA(); err != nil {
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
	killB, clB, err := startCrashChild(model, logDir)
	if err != nil {
		return err
	}
	defer killB()
	// NewServer replays the log before it returns and the child announces
	// itself after that, so the recovered decision is there to read at once.
	rec, ok, err := clB.Occupancy(ctx, id)
	if err != nil || !ok {
		return fmt.Errorf("crash: child B holds no recovered decision (ok=%v): %v", ok, err)
	}
	if err := runA.verify([]occupancy.Decision{rec}, logged-1, 1, []span{ref}); err != nil {
		return fmt.Errorf("crash: recovered state: %w", err)
	}
	fmt.Printf("loadgen: crash: recovered to frame %d bit-identical\n", logged-1)

	// Phase 4: the stream continues across the crash as if it never
	// happened — every remaining decision bit-identical to the replay.
	runB, err := openFeed(ctx, clB, id, 0, fx.recs)
	if err != nil {
		return err
	}
	if err := runB.send(ctx, logged, total); err != nil {
		return fmt.Errorf("crash: continuation: %w", err)
	}
	eventsB, err := runB.close(ctx)
	if err != nil {
		return err
	}
	if err := runB.verify(eventsB, logged, total-logged, []span{ref}); err != nil {
		return fmt.Errorf("crash: after recovery: %w", err)
	}
	fmt.Printf("loadgen: crash: %d post-recovery decisions bit-identical; zero acknowledged frames lost\n", total-logged)
	return nil
}
