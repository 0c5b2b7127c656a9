package infer_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/infer"
	"repro/internal/obs"
)

func TestRegistryInstallActivate(t *testing.T) {
	reg := obs.NewRegistry()
	r := infer.NewRegistry(reg)

	if r.Active() != nil {
		t.Fatal("fresh registry has an active version")
	}
	blobA := []byte("bundle-A")
	a, existed, err := r.Install(blobA, func(b []byte) (any, error) { return string(b), nil })
	if err != nil || existed {
		t.Fatalf("install A: existed=%v err=%v", existed, err)
	}
	if a.ID() != infer.BlobID(blobA) || a.Seq() != 1 {
		t.Fatalf("version A: id=%s seq=%d", a.ID(), a.Seq())
	}
	if a.Payload().(string) != "bundle-A" {
		t.Fatalf("payload: %v", a.Payload())
	}

	// Identical bytes dedup without re-building.
	a2, existed, err := r.Install(blobA, func([]byte) (any, error) {
		t.Fatal("build ran for an already-installed bundle")
		return nil, nil
	})
	if err != nil || !existed || a2 != a {
		t.Fatalf("dedup: existed=%v err=%v", existed, err)
	}

	// Activation is the only path to Active; unknown ids error.
	if _, err := r.Activate("deadbeef"); !errors.Is(err, infer.ErrUnknownVersion) {
		t.Fatalf("activate unknown: %v", err)
	}
	if r.Active() != nil {
		t.Fatal("failed activation changed the active version")
	}
	if _, err := r.Activate(a.ID()); err != nil {
		t.Fatal(err)
	}
	if r.Active() != a || !r.WasActivated(a.ID()) {
		t.Fatal("A not active after Activate")
	}

	b, _, err := r.Install([]byte("bundle-B"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seq() != 2 || b.Payload() != nil {
		t.Fatalf("version B: seq=%d payload=%v", b.Seq(), b.Payload())
	}
	if r.WasActivated(b.ID()) {
		t.Fatal("B marked active before activation")
	}
	if _, err := r.Activate(b.ID()); err != nil {
		t.Fatal(err)
	}
	if r.Active() != b {
		t.Fatal("swap did not flip the active version")
	}

	list := r.List()
	if len(list) != 2 || !list[1].Active || list[0].Active || !list[0].EverActive {
		t.Fatalf("list: %+v", list)
	}
	got := make(map[string]float64)
	for _, m := range reg.Snapshot().Metrics {
		got[m.Name] = m.Value
	}
	for name, want := range map[string]float64{
		"infer_model_installs_total": 2,
		"infer_model_swaps_total":    2,
		"infer_model_active_seq":     2,
		"infer_model_versions":       2,
	} {
		if v, ok := got[name]; !ok || v != want {
			t.Fatalf("metric %s: got %v want %v", name, v, want)
		}
	}
}

// TestRejectedNeverInstalled: a build error leaves no trace — the candidate
// is not listed, not fetchable, and not activatable.
func TestRejectedNeverInstalled(t *testing.T) {
	r := infer.NewRegistry(nil)
	bad := []byte("corrupt-bundle")
	_, _, err := r.Install(bad, func([]byte) (any, error) { return nil, fmt.Errorf("divergence gate failed") })
	if err == nil {
		t.Fatal("rejected install returned no error")
	}
	if _, ok := r.Get(infer.BlobID(bad)); ok {
		t.Fatal("rejected candidate is fetchable")
	}
	if _, err := r.Activate(infer.BlobID(bad)); !errors.Is(err, infer.ErrUnknownVersion) {
		t.Fatalf("rejected candidate activatable: %v", err)
	}
	if len(r.List()) != 0 {
		t.Fatal("rejected candidate listed")
	}
}

func TestRegistryPinning(t *testing.T) {
	r := infer.NewRegistry(nil)
	a, _, _ := r.Install([]byte("A"), nil)
	b, _, _ := r.Install([]byte("B"), nil)
	if _, err := r.Activate(a.ID()); err != nil {
		t.Fatal(err)
	}

	if _, err := r.Pin("room", "nope"); !errors.Is(err, infer.ErrUnknownVersion) {
		t.Fatalf("pin unknown: %v", err)
	}
	if _, err := r.Pin("room", b.ID()); err != nil {
		t.Fatal(err)
	}
	if v := r.ResolveFor("room"); v != b {
		t.Fatalf("pinned feed resolved %v", v)
	}
	if v := r.ResolveFor("hall"); v != a {
		t.Fatalf("unpinned feed resolved %v", v)
	}
	if !r.WasActivated(b.ID()) {
		t.Fatal("pin must count as activation for version tags")
	}
	if pv, ok := r.Pinned("room"); !ok || pv != b {
		t.Fatal("Pinned lookup")
	}
	if list := r.List(); list[1].PinnedFeeds != 1 {
		t.Fatalf("list pin count: %+v", list)
	}
	if !r.Unpin("room") || r.Unpin("room") {
		t.Fatal("unpin idempotence")
	}
	if v := r.ResolveFor("room"); v != a {
		t.Fatalf("unpinned feed resolved %v", v)
	}
}

func TestRegistryEmptyAndMutationSafety(t *testing.T) {
	r := infer.NewRegistry(nil)
	if _, _, err := r.Install(nil, nil); err == nil {
		t.Fatal("empty bundle installed")
	}
	blob := []byte("mutate-me")
	v, _, _ := r.Install(blob, nil)
	blob[0] = 'X'
	if string(v.Blob()) != "mutate-me" {
		t.Fatal("registry aliased the caller's bundle slice")
	}
}

// TestSwapUnderLoad: resolvers hammering ResolveFor during concurrent
// activations only ever see installed, activated versions, and end on the
// final one. Run with -race this doubles as the data-race gate on the
// swap path.
func TestSwapUnderLoad(t *testing.T) {
	r := infer.NewRegistry(nil)
	const nv = 8
	ids := make([]string, nv)
	for i := range ids {
		v, _, err := r.Install([]byte(fmt.Sprintf("bundle-%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID()
	}
	valid := make(map[string]bool, nv)
	for _, id := range ids {
		valid[id] = true
	}
	if _, err := r.Activate(ids[0]); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				v := r.ResolveFor("feed")
				if v == nil || !valid[v.ID()] {
					select {
					case errc <- fmt.Errorf("resolved bogus version %v", v):
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		if _, err := r.Activate(ids[i%nv]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Activate(ids[nv-1]); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if r.Active().ID() != ids[nv-1] {
		t.Fatal("final active version wrong")
	}
}
