package main

import (
	"io"
	"strings"
	"testing"
	"time"

	"abg/internal/server"
)

func TestParseFlagsRejectsConflicts(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"cluster with follow", []string{"-cluster", "2", "-follow", "http://leader:7133"}, "-cluster and -follow"},
		{"cluster with group", []string{"-cluster", "2", "-group", "http://a:1,http://b:2"}, "-cluster and -group"},
		{"promote-after is gone", []string{"-follow", "http://leader:7133", "-promote-after", "1s"}, "promote-after"},
		{"stray argument", []string{"-cluster", "2", "extra"}, "unexpected arguments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("parseFlags(%q) = %v, want an error mentioning %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestParseFlagsBuildsConfig(t *testing.T) {
	o, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-P", "32", "-clock", "virtual", "-tick", "5ms",
		"-group", " http://a:1, ,http://b:2 ", "-advertise", "http://a:1",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	d := o.daemon
	if d.Addr != "127.0.0.1:0" || d.P != 32 || d.L != 1000 || d.Clock != server.ClockVirtual || d.Tick != 5*time.Millisecond {
		t.Fatalf("daemon config %+v", d)
	}
	if len(d.Group) != 2 || d.Group[0] != "http://a:1" || d.Group[1] != "http://b:2" {
		t.Fatalf("group %q, want the two non-blank members", d.Group)
	}
	if o.shards != 0 {
		t.Fatalf("shards %d without -cluster", o.shards)
	}
	if o, err = parseFlags([]string{"-cluster", "4", "-cluster-workers", "2"}, io.Discard); err != nil || o.shards != 4 || o.workers != 2 {
		t.Fatalf("-cluster 4 -cluster-workers 2: %+v, %v", o, err)
	}
}
