package main

import "testing"

func TestStreamsFollowSeed(t *testing.T) {
	stream := func(seed uint64) uint64 {
		return streamHash(opStream(seed, 0, 5000, 4096, 5), opStream(seed, 1, 5000, 4096, 5))
	}
	if stream(7) != stream(7) {
		t.Error("same seed gave different op streams")
	}
	if stream(7) == stream(8) {
		t.Error("different seeds gave the same op streams")
	}
	if streamHash(opStream(7, 0, 5000, 4096, 5)) == streamHash(opStream(7, 1, 5000, 4096, 5)) {
		t.Error("two generators share one op stream")
	}
}

func TestOpStreamShape(t *testing.T) {
	const n, universe = 20000, 1000
	writes := 0
	for _, w := range opStream(1, 0, n, universe, 10) {
		if w&setFlag != 0 {
			writes++
		}
		if w&^setFlag >= universe {
			t.Fatalf("rank %d outside universe %d", w&^setFlag, universe)
		}
	}
	if writes < n*8/100 || writes > n*12/100 {
		t.Errorf("%d writes in %d ops, want about 10%%", writes, n)
	}
}

func TestKeysDistinctAndValuesSelfValidating(t *testing.T) {
	seen := make(map[uint64]bool)
	for id := uint64(0); id < 10000; id++ {
		w := keyWord(3, id)
		if seen[w] {
			t.Fatalf("id %d repeats key %#x", id, w)
		}
		seen[w] = true
		v := valueFor(w)
		if !validValue(w, v) {
			t.Fatalf("value for %#x does not validate", w)
		}
		if validValue(w+1, v) || validValue(w, v[:valLen-1]) {
			t.Fatalf("value for %#x validates under the wrong key or length", w)
		}
	}
}
