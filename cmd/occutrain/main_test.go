package main

import (
	"flag"
	"testing"

	"repro/internal/dataset"
)

func TestParseFeatures(t *testing.T) {
	cases := map[string]dataset.FeatureSet{
		"CSI": dataset.FeatCSI, "csi": dataset.FeatCSI,
		"Env": dataset.FeatEnv, "ENV": dataset.FeatEnv,
		"C+E": dataset.FeatCSIEnv, "CSIENV": dataset.FeatCSIEnv, "csi+env": dataset.FeatCSIEnv,
	}
	for in, want := range cases {
		got, err := parseFeatures(in)
		if err != nil || got != want {
			t.Fatalf("parseFeatures(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseFeatures("time"); err == nil {
		t.Fatal("time must be rejected (not a Table IV subset)")
	}
	if _, err := parseFeatures(""); err == nil {
		t.Fatal("empty must be rejected")
	}
}

func TestParseHidden(t *testing.T) {
	got, err := parseHidden("128,256,128")
	if err != nil || len(got) != 3 || got[0] != 128 || got[1] != 256 || got[2] != 128 {
		t.Fatalf("parseHidden: %v, %v", got, err)
	}
	got, err = parseHidden(" 8 , 4 ")
	if err != nil || got[0] != 8 || got[1] != 4 {
		t.Fatalf("whitespace handling: %v, %v", got, err)
	}
	for _, bad := range []string{"", "a,b", "0", "-3", "8,,4"} {
		if _, err := parseHidden(bad); err == nil {
			t.Fatalf("parseHidden(%q) must fail", bad)
		}
	}
}

// TestCheckModeFlags: a flag the chosen mode would ignore is refused when
// set explicitly, never dropped silently; defaults pass in both modes.
func TestCheckModeFlags(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		shadow bool
		ok     bool
	}{
		{nil, false, true},
		{nil, true, true},
		{[]string{"-data", "x.csv", "-features", "CSI", "-train", "10"}, false, true},
		{[]string{"-data", ""}, true, false},
		{[]string{"-features", "C+E"}, true, false},
		{[]string{"-train", "100"}, true, false},
		{[]string{"-shadow-from", "a.bin"}, true, true},
		{[]string{"-shadow-from", "a.bin"}, false, false},
		{[]string{"-shadow-feeds", "a"}, false, false},
		{[]string{"-shadow-max-frames", "5"}, false, false},
	} {
		fs := flag.NewFlagSet("occutrain", flag.ContinueOnError)
		for _, name := range append(append([]string(nil), dataFlags...), shadowFlags...) {
			fs.String(name, "", "")
		}
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if err := checkModeFlags(fs, tc.shadow); (err == nil) != tc.ok {
			t.Errorf("%v (shadow %v): %v, want ok=%v", tc.args, tc.shadow, err, tc.ok)
		}
	}
}
