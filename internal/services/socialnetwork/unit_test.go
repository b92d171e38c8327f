package socialnetwork

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"dsb/internal/vtime"
)

func TestTokenize(t *testing.T) {
	got := tokenize("The quick BROWN-fox, jumps! over 42 a i")
	want := []string{"quick", "brown", "fox", "jumps", "over", "42"}
	if len(got) != len(want) {
		t.Fatalf("tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokenize = %v, want %v", got, want)
		}
	}
	if out := tokenize(""); len(out) != 0 {
		t.Fatalf("empty tokenize = %v", out)
	}
}

func TestSearchShardScoring(t *testing.T) {
	s := newSearchShard()
	s.index("p1", "coffee coffee coffee")
	s.index("p2", "coffee tea")
	s.index("p3", "tea only here")
	hits := s.query([]string{"coffee"}, 10)
	if len(hits) != 2 {
		t.Fatalf("hits = %+v", hits)
	}
	if hits[0].PostID != "p1" {
		t.Fatalf("tf ordering wrong: %+v", hits)
	}
	if got := s.query([]string{"nothing"}, 10); len(got) != 0 {
		t.Fatalf("miss = %+v", got)
	}
	if got := s.query([]string{"coffee"}, 1); len(got) != 1 {
		t.Fatalf("limit = %+v", got)
	}
}

func TestSearchShardEmpty(t *testing.T) {
	s := newSearchShard()
	if got := s.query([]string{"x"}, 5); got != nil {
		t.Fatalf("empty shard = %v", got)
	}
}

func TestAverageHashProperties(t *testing.T) {
	if averageHash(nil) != 0 {
		t.Fatal("empty hash != 0")
	}
	// Uniform images hash to 0 (no pixel above the mean).
	if h := averageHash(make([]byte, 4096)); h != 0 {
		t.Fatalf("uniform hash = %x", h)
	}
	// An image striped at cell granularity (8-row bands on a 64x64 grid)
	// has roughly half its hash bits set.
	img := make([]byte, 64*64)
	for i := range img {
		if (i/64/8)%2 == 0 {
			img[i] = 255
		}
	}
	h := averageHash(img)
	ones := 0
	for i := 0; i < 64; i++ {
		if h&(1<<i) != 0 {
			ones++
		}
	}
	if ones < 24 || ones > 40 {
		t.Fatalf("striped image set %d bits", ones)
	}
	// Hash is deterministic and shift-sensitive.
	if averageHash(img) != h {
		t.Fatal("hash not deterministic")
	}
}

// Property: averageHash never panics and similar images (one byte changed)
// have close hashes (Hamming distance <= 8).
func TestAverageHashStabilityProperty(t *testing.T) {
	f := func(data []byte, flip uint16) bool {
		h1 := averageHash(data)
		if len(data) == 0 {
			return h1 == 0
		}
		mutated := append([]byte(nil), data...)
		mutated[int(flip)%len(mutated)] ^= 0x10
		h2 := averageHash(mutated)
		diff := h1 ^ h2
		ones := 0
		for i := 0; i < 64; i++ {
			if diff&(1<<i) != 0 {
				ones++
			}
		}
		return ones <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSnowflakeUniqueAndOrdered(t *testing.T) {
	vtime.Run(t, func() {
		u := &uniqueID{machine: 5}
		seen := map[string]bool{}
		prev := ""
		for i := 0; i < 5000; i++ {
			if i%100 == 0 {
				vtime.Advance(time.Millisecond)
			}
			id := u.next()
			if seen[id] {
				t.Fatalf("duplicate id %s at %d", id, i)
			}
			seen[id] = true
			if id < prev {
				t.Fatalf("ids not monotone: %s < %s", id, prev)
			}
			prev = id
		}
	})
}

// Exhausting the 12-bit sequence inside one millisecond waits for the next
// millisecond: on a clock that never moves by itself, three exhaustions in a
// row still finish after exactly three milliseconds, every ID distinct and in
// order.
func TestSnowflakeSequenceExhaustionWaits(t *testing.T) {
	vtime.Run(t, func() {
		u := &uniqueID{machine: 5}
		start := time.Now()
		seen := map[string]bool{}
		prev := ""
		for i := 0; i < 3*4096+1; i++ {
			id := u.next()
			if seen[id] || id <= prev {
				t.Fatalf("id %d = %s after %s: not unique and increasing", i, id, prev)
			}
			seen[id] = true
			prev = id
		}
		if waited := time.Since(start); waited != 3*time.Millisecond {
			t.Fatalf("three exhaustions waited %v, want 3ms", waited)
		}
	})
}

// A clock behind the last issued millisecond (stepped backwards) keeps the
// IDs issuing under that millisecond, unique and increasing.
func TestSnowflakeClockStepBack(t *testing.T) {
	u := &uniqueID{machine: 5, lastMs: time.Now().Add(time.Minute).UnixMilli(), seq: 7}
	prev := fmt.Sprintf("%016x", uint64(u.lastMs)<<22|u.machine<<12|u.seq)
	for i := 0; i < 100; i++ {
		id := u.next()
		if id <= prev {
			t.Fatalf("id %d = %s after %s issued ahead of the clock", i, id, prev)
		}
		prev = id
	}
}

func TestHashPasswordSaltMatters(t *testing.T) {
	if hashPassword("pw", "a") == hashPassword("pw", "b") {
		t.Fatal("salt ignored")
	}
	if hashPassword("pw", "a") != hashPassword("pw", "a") {
		t.Fatal("hash not deterministic")
	}
}
