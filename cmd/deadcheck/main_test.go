package main

import (
	"reflect"
	"testing"
)

// TestFixture runs the checker over testdata/mod, a module that holds
// one definition of each kind the checker must judge: it reports the
// func only a test calls, the func nothing calls, a Len method of a
// type that is no sort.Interface, the type only a compile-time
// assertion names and the field only a test reads, and none of the
// interface method, the sort/String methods, the json-tagged field,
// the map-key and unkeyed-literal fields, the recursive helper, or the
// func only the nested bench module calls.
func TestFixture(t *testing.T) {
	hits, err := check("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:13:6: fixture/lib.TestOnly: only tests use it",
		"lib/lib.go:16:6: fixture/lib.Orphan: nothing uses it",
		"lib/lib.go:39:17: fixture/lib.Square.Len: nothing uses it",
		"lib/lib.go:52:6: fixture/lib.asserted: nothing uses it",
		"lib/lib.go:83:20: fixture/lib.tally.decodes: only tests use it",
	}
	if got := report(hits, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("hits:\n%q\nwant:\n%q", got, want)
	}

	// An allowlisted hit is dropped; an entry that names no hit is
	// reported, so the list cannot keep names that were deleted.
	allow := map[string]bool{"fixture/lib.TestOnly": true, "fixture/lib.Used": true}
	want = append(want[1:], "fixture/lib.Used: allowlisted, but not a hit")
	if got := report(hits, allow); !reflect.DeepEqual(got, want) {
		t.Fatalf("with allowlist:\n%q\nwant:\n%q", got, want)
	}
}
