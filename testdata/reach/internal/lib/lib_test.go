package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 {
		t.Fatal("TestOnly() != 1")
	}
}

func TestCounterLast(t *testing.T) {
	c := NewCounter()
	c.Hit()
	if c.last != 1 {
		t.Fatalf("last = %d after one Hit", c.last)
	}
}
