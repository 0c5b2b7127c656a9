package benchkit

import "testing"

const promBefore = `# HELP server_decisions_total decisions produced across all feeds
# TYPE server_decisions_total counter
server_decisions_total 100
# HELP infer_batch_size coalesced micro-batch sizes
# TYPE infer_batch_size histogram
infer_batch_size_bucket{le="1"} 10
infer_batch_size_bucket{le="+Inf"} 40
infer_batch_size_sum 160
infer_batch_size_count 40
server_active_feeds 16
`

const promAfter = `# HELP server_decisions_total decisions produced across all feeds
# TYPE server_decisions_total counter
server_decisions_total 1100
infer_batch_size_bucket{le="1"} 10
infer_batch_size_bucket{le="+Inf"} 140
infer_batch_size_sum 1660
infer_batch_size_count 140
server_active_feeds 16
framelog_fsyncs_total 3
not a sample line
`

func TestParsePromAndDelta(t *testing.T) {
	before, after := ParseProm(promBefore), ParseProm(promAfter)
	if before["server_decisions_total"] != 100 || before[`infer_batch_size_bucket{le="+Inf"}`] != 40 {
		t.Fatalf("parse: %v", before)
	}
	if _, ok := after["not a sample"]; ok || len(after) != 7 {
		t.Errorf("unparsable lines must be skipped, got %d series: %v", len(after), after)
	}
	d := PromDelta(after, before)
	if d["server_decisions_total"] != 1000 || d["infer_batch_size_count"] != 100 || d["infer_batch_size_sum"] != 1500 {
		t.Errorf("delta: %v", d)
	}
	if d["framelog_fsyncs_total"] != 3 {
		t.Errorf("a series born between the snapshots counts from zero, got %v", d["framelog_fsyncs_total"])
	}
	if d["server_active_feeds"] != 0 {
		t.Errorf("unchanged gauge delta = %v", d["server_active_feeds"])
	}
}

func TestPromValue(t *testing.T) {
	text := "# HELP x_total about x_total 5\nprefix_x_total 9\nx_total 42\nx_total_more 7\n"
	if v, ok := PromValue(text, "x_total"); !ok || v != 42 {
		t.Errorf("PromValue = %v %v, want 42 (not the HELP text, not a longer name)", v, ok)
	}
	if _, ok := PromValue(text, "missing_total"); ok {
		t.Error("missing series reported present")
	}
	if v, ok := PromValue("x_total 3", "x_total"); !ok || v != 3 {
		t.Errorf("first line without trailing newline: %v %v", v, ok)
	}
}
