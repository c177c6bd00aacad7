package main

import (
	"flag"
	"math"
	"testing"

	"clite"
)

func TestParseLC(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		name     string
		load     float64
		parseErr bool
		addErr   bool
	}{
		{spec: "memcached:0.3", name: "memcached", load: 0.3},
		{spec: "memcached", parseErr: true},
		{spec: "memcached:high", parseErr: true},
		// ParseFloat accepts "NaN"; the machine's range check must
		// then refuse it.
		{spec: "memcached:NaN", name: "memcached", load: math.NaN(), addErr: true},
	} {
		name, load, err := parseLC(tc.spec)
		if (err != nil) != tc.parseErr {
			t.Errorf("parseLC(%q): err=%v, want error=%v", tc.spec, err, tc.parseErr)
			continue
		}
		if tc.parseErr {
			continue
		}
		if name != tc.name || (load != tc.load && !(math.IsNaN(load) && math.IsNaN(tc.load))) {
			t.Errorf("parseLC(%q) = (%q, %v), want (%q, %v)", tc.spec, name, load, tc.name, tc.load)
		}
		_, err = clite.NewMachine(1).AddLC(name, load)
		if (err != nil) != tc.addErr {
			t.Errorf("AddLC after parseLC(%q): err=%v, want error=%v", tc.spec, err, tc.addErr)
		}
	}
}

func TestJobListAccumulatesRepeatedFlags(t *testing.T) {
	var lc jobList
	fs := flag.NewFlagSet("clite", flag.ContinueOnError)
	fs.Var(&lc, "lc", "")
	if err := fs.Parse([]string{"-lc", "memcached:0.3", "-lc", "img-dnn:0.2", "-lc", "memcached:0.1"}); err != nil {
		t.Fatal(err)
	}
	want := []string{"memcached:0.3", "img-dnn:0.2", "memcached:0.1"}
	if len(lc) != len(want) {
		t.Fatalf("jobList = %v, want %v", lc, want)
	}
	for i := range want {
		if lc[i] != want[i] {
			t.Errorf("jobList[%d] = %q, want %q", i, lc[i], want[i])
		}
	}
	if got := lc.String(); got != "memcached:0.3,img-dnn:0.2,memcached:0.1" {
		t.Errorf("String() = %q", got)
	}
}
