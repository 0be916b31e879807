package server

import (
	"reflect"
	"testing"
)

func TestRingCaps(t *testing.T) {
	size := func(s string) int { return len(s) }
	for _, tc := range []struct {
		name          string
		max, maxBytes int
		push          []string
		want          []string
		evicted       int
	}{
		{"under both caps", 4, 100, []string{"a", "bb", "c"}, []string{"a", "bb", "c"}, 0},
		{"entry cap evicts oldest", 3, 0, []string{"a", "b", "c", "d", "e"}, []string{"c", "d", "e"}, 2},
		{"byte cap evicts oldest", 10, 5, []string{"aa", "bb", "cc", "d"}, []string{"bb", "cc", "d"}, 1},
		{"byte cap binds before entry cap", 3, 4, []string{"aaa", "b", "cc"}, []string{"b", "cc"}, 1},
		{"entry cap binds before byte cap", 2, 100, []string{"aaa", "b", "cc"}, []string{"b", "cc"}, 1},
		{"oversized entry is still kept", 4, 3, []string{"a", "bb", "cccccc"}, []string{"cccccc"}, 2},
		{"oversized entry then small", 4, 3, []string{"cccccc", "a"}, []string{"a"}, 1},
		{"single-entry ring", 1, 0, []string{"a", "b", "c"}, []string{"c"}, 2},
		{"non-positive cap keeps one", 0, 0, []string{"a", "b"}, []string{"b"}, 1},
		{"wraps many times", 3, 0, []string{"1", "2", "3", "4", "5", "6", "7", "8"}, []string{"6", "7", "8"}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRing(tc.max, tc.maxBytes, size)
			evicted := 0
			for _, v := range tc.push {
				evicted += r.push(v)
			}
			got := r.appendTo(nil)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ring holds %q, want %q", got, tc.want)
			}
			if evicted != tc.evicted {
				t.Fatalf("evicted %d, want %d", evicted, tc.evicted)
			}
			if r.len() != len(tc.want) {
				t.Fatalf("len %d, want %d", r.len(), len(tc.want))
			}
			bytes := 0
			for _, v := range got {
				bytes += len(v)
			}
			if tc.maxBytes > 0 && r.bytes != bytes {
				t.Fatalf("byte tally %d, want %d", r.bytes, bytes)
			}
		})
	}
}

// TestRingGrowsLazily: a ring that never fills never allocates its full
// capacity, and growing mid-wrap keeps oldest-first order.
func TestRingGrowsLazily(t *testing.T) {
	r := newRing[int](1024, 0, nil)
	r.push(1)
	if c := cap(r.buf); c > 4 {
		t.Fatalf("one entry allocated capacity %d", c)
	}
	// Force a wrap before growth: a byte cap pops from the front early.
	w := newRing(8, 3, func(v int) int { return v })
	for _, v := range []int{1, 1, 1, 2, 1} {
		w.push(v)
	}
	if got := w.appendTo(nil); !reflect.DeepEqual(got, []int{2, 1}) {
		t.Fatalf("wrapped ring holds %v, want [2 1]", got)
	}
	for i := 0; i < 5; i++ {
		w.push(0)
	}
	if got := w.appendTo(nil); !reflect.DeepEqual(got, []int{2, 1, 0, 0, 0, 0, 0}) {
		t.Fatalf("grown ring holds %v", got)
	}
}
