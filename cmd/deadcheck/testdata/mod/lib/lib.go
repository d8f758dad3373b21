// Package lib holds one definition of each kind deadcheck must judge.
package lib

import (
	"encoding/json"
	"fmt"
)

// Used has a production caller.
func Used() int { return fact(3) }

// TestOnly is called by lib_test.go only: a hit.
func TestOnly() int { return 6 }

// Orphan has no caller at all: a hit.
func Orphan() {}

// fact calls itself; the recursion is no use.
func fact(n int) int {
	if n <= 1 {
		return 1
	}
	return n * fact(n-1)
}

// BenchOnly is called only by the nested bench module.
func BenchOnly() int { return 1 }

// Shape is called through an interface.
type Shape interface{ Area() int }

// Square implements Shape; nothing calls Area on a Square directly.
type Square struct{ Side int }

// Area implements Shape.
func (s Square) Area() int { return s.Side * s.Side }

// Len is no sort method: Square has no Less or Swap. A hit.
func (s Square) Len() int { return 4 }

// Total sums the areas through the interface.
func Total(shapes []Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}

// asserted satisfies Shape, but only a compile-time assertion names
// it: a hit.
type asserted struct{}

var _ Shape = asserted{}

// Area implements Shape.
func (asserted) Area() int { return 0 }

// byLen is sorted and printed by the standard library.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }
func (b byLen) String() string     { return fmt.Sprint([]string(b)) }

// Event is decoded by encoding/json; Cat is never read.
type Event struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
}

// key is a map key: its fields are compared, never named.
type key struct{ a, b int }

// pair is built by an unkeyed literal and compared whole.
type pair struct{ x, y int }

var seen = map[key]int{}

// tally's field is written on every decode but only lib_test.go reads
// it: a hit.
type tally struct{ decodes int }

var stats tally

// Decode parses one event and counts it.
func Decode(data []byte) (string, error) {
	var ev Event
	err := json.Unmarshal(data, &ev)
	seen[key{}]++
	stats.decodes++
	if (pair{1, 2}) == (pair{}) {
		return "", nil
	}
	return ev.Name + byLen{"a"}.String(), err
}

// Sorted is the byLen conversion the sort package needs.
func Sorted(s []string) byLen { return byLen(s) }
