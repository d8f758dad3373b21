package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 6 || stats.decodes != 0 {
		t.Fatal("TestOnly")
	}
}
