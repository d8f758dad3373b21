package main

import "fixture/lib"

// benchOnly is defined in the bench module: never reported.
func benchOnly() int { return lib.BenchOnly() }

func main() { println(benchOnly()) }
