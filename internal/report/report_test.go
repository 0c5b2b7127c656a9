package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := New("TABLE X", "Fold", "Acc", "Notes")
	tb.AddRowStrings("1", "0.97", "ok")
	tb.AddRowStrings("Avg.", "0.50", "mixed bag")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	if lines[0] != "TABLE X" {
		t.Fatalf("title line %q", lines[0])
	}
	if !strings.Contains(lines[1], "Fold") || !strings.Contains(lines[1], "Acc") {
		t.Fatalf("header %q", lines[1])
	}
	if !strings.Contains(lines[3], "0.97") {
		t.Fatalf("first row: %q", lines[3])
	}
	if !strings.Contains(lines[4], "mixed bag") {
		t.Fatalf("string row: %q", lines[4])
	}
	// Columns aligned: header and rows have the separator-consistent width.
	if len(lines[2]) < len("Fold  Acc") {
		t.Fatal("separator too short")
	}
}

func TestTableNoTitleAndRaggedRows(t *testing.T) {
	tb := New("", "A", "B")
	tb.AddRowStrings("1", "2", "3") // extra cell beyond header
	out := tb.String()
	if strings.HasPrefix(out, "\n") {
		t.Fatal("no empty title line expected")
	}
	if !strings.Contains(out, "3") {
		t.Fatal("extra cell dropped")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d", len(lines))
	}
}

func TestTrailingWhitespaceTrimmed(t *testing.T) {
	tb := New("", "LongHeader", "X")
	tb.AddRowStrings("a", "b")
	for _, line := range strings.Split(tb.String(), "\n") {
		if line != strings.TrimRight(line, " ") {
			t.Fatalf("trailing whitespace in %q", line)
		}
	}
}
