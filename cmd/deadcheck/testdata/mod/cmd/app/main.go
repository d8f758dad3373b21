package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	s, err := lib.Decode([]byte(`{}`))
	fmt.Println(lib.Used(), lib.Total([]lib.Shape{lib.Square{Side: 2}}), lib.Sorted(nil), s, err, lib.Retries())
}
