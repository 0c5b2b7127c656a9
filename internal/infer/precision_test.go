package infer

import "testing"

// TestParsePrecision covers the flag/config string mapping.
func TestParsePrecision(t *testing.T) {
	for s, want := range map[string]Precision{
		"": PrecisionF64, "f64": PrecisionF64,
		"f32": PrecisionF32, "int8": PrecisionI8,
	} {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = (%v, %v), want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"f16", "fp32", "F32", "int", "8"} {
		if _, err := ParsePrecision(s); err == nil {
			t.Fatalf("ParsePrecision(%q) accepted", s)
		}
	}
}
