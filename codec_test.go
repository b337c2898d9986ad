package growt

import (
	"strings"
	"testing"
)

// TestDefaultHasherStringKinded: string-kinded keys — string itself and
// named string types, which used to fall into the reflect walk — hash
// through the unsafe fast path: no allocation, and equal keys with
// different backing arrays hash equal.
func TestDefaultHasherStringKinded(t *testing.T) {
	type label string
	hash := defaultHasher[label]()
	k := label("some-reasonably-long-key")
	if a := testing.AllocsPerRun(100, func() { hash(k) }); a != 0 {
		t.Fatalf("default hasher of a named string key allocates %v times per call", a)
	}
	if twin := label(strings.Clone(string(k))); hash(twin) != hash(k) {
		t.Fatal("equal keys hash differently")
	}
	if hash("") == hash(k) {
		t.Fatal("empty and non-empty key collide: the fast path ignores the key")
	}
}
