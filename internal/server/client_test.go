package server

import (
	"reflect"
	"testing"
)

// TestClientMembers: group members are normalized like Base, and blank or
// duplicate entries never become endpoints.
func TestClientMembers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		base  string
		group []string
		want  []string
	}{
		{"no group", "127.0.0.1:7133", nil, []string{"http://127.0.0.1:7133"}},
		{"trimmed and schemed", "http://a:1/", []string{" http://b:2", "c:3/"},
			[]string{"http://a:1", "http://b:2", "http://c:3"}},
		{"blanks dropped", "http://a:1", []string{"http://b:2", "", "  "},
			[]string{"http://a:1", "http://b:2"}},
		{"base not repeated", "http://a:1", []string{"a:1/", " http://a:1 ", "http://b:2"},
			[]string{"http://a:1", "http://b:2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewClient(tc.base)
			c.Group = tc.group
			if got := c.members(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("members() = %q, want %q", got, tc.want)
			}
		})
	}
}
