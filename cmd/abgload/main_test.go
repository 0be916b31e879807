package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseFlagsRejectsConflicts(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"no target", nil, "need -addr"},
		{"crash with failover", []string{"-crash", "-failover"}, "mutually exclusive"},
		{"selftest with cluster", []string{"-selftest", "-cluster", "2"}, "mutually exclusive"},
		{"crash with selftest", []string{"-selftest", "-crash"}, "mutually exclusive"},
		{"json with crash", []string{"-crash", "-json"}, "-json is not supported"},
		{"zero jobs", []string{"-selftest", "-jobs", "0"}, "-jobs >= 1"},
		{"zero clients", []string{"-addr", "localhost:7133", "-clients", "0"}, "-clients >= 1"},
		{"stray argument", []string{"-selftest", "extra"}, "unexpected arguments"},
		{"unknown flag", []string{"-selftest", "-bogus"}, "bogus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("parseFlags(%q) = %v, want an error mentioning %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestParseFlagsBuildsOptions(t *testing.T) {
	o, err := parseFlags([]string{
		"-selftest", "-jobs", "60", "-clients", "8", "-P", "32", "-L", "100",
		"-kind", "fullPar", "-timeout", "30s",
		"-group", " http://a:1, ,http://b:2 ,",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !o.selftest || o.crash || o.failover || o.shards != 0 {
		t.Fatalf("modes %+v, want selftest only", o)
	}
	run := o.soak.run
	if run.jobs != 60 || run.clients != 8 || o.soak.p != 32 || o.soak.l != 100 ||
		run.spec.Kind != "fullPar" || o.timeout != 30*time.Second || run.seed != 2008 {
		t.Fatalf("options %+v", o)
	}
	if want := []string{"http://a:1", "http://b:2"}; !reflect.DeepEqual(run.group, want) {
		t.Fatalf("group %q, want %q", run.group, want)
	}
	if o, err = parseFlags([]string{"-cluster", "2", "-json"}, io.Discard); err != nil || o.shards != 2 || !o.jsonOut {
		t.Fatalf("-cluster 2 -json: %+v, %v", o, err)
	}
	if o, err = parseFlags([]string{"-version"}, io.Discard); err != nil || !o.version {
		t.Fatalf("-version: %+v, %v", o, err)
	}
}
