package transport

import (
	"runtime"
	"sync"
	"testing"
)

// A buffer belongs to one owner between AcquireBuf and ReleaseBuf: 16
// goroutines stamp theirs with a pattern nobody else writes and must read it
// back intact, 10 000 times each, under -race.
func TestBufPoolExclusiveOwnership(t *testing.T) {
	const goroutines, rounds, fill = 16, 10_000, 256
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b := AcquireBuf(fill)
				if len(b) != 0 {
					t.Errorf("goroutine %d: acquired buffer has length %d", g, len(b))
					return
				}
				stamp := byte(g<<4 | r&0xF)
				for i := 0; i < fill; i++ {
					b = append(b, stamp)
				}
				runtime.Gosched() // give a second owner, if there were one, its turn
				for i, v := range b {
					if v != stamp {
						t.Errorf("goroutine %d round %d: byte %d = %#x, want %#x: buffer has two owners", g, r, i, v, stamp)
						return
					}
				}
				ReleaseBuf(b)
			}
		}(g)
	}
	wg.Wait()
}

// emptyBufPool leaves nothing to recycle: a sync.Pool survives one
// collection in its victim cache and none after the second.
func emptyBufPool() {
	runtime.GC()
	runtime.GC()
}

func TestAcquireBufMintsWithinBounds(t *testing.T) {
	emptyBufPool()
	// Held, not released, so each acquire finds its class still empty.
	for _, tc := range []struct{ hint, want int }{
		{0, minBufCap},
		{minBufCap - 1, minBufCap},
		{minBufCap, minBufCap},
		{minBufCap + 1, 2 * minBufCap},
		{4096, 4096},
		{maxPooledBuf, maxPooledBuf},
		{maxPooledBuf + 1, maxPooledBuf + 1},
	} {
		if b := AcquireBuf(tc.hint); len(b) != 0 || cap(b) != tc.want {
			t.Errorf("AcquireBuf(%d) on an empty pool: len %d cap %d, want 0 and %d", tc.hint, len(b), cap(b), tc.want)
		}
	}
}

// A large buffer waits in its own class for a caller that asks for one: a
// large acquire recycles it instead of minting, though a small buffer was
// released after it, and a small acquire does not take it.
func TestAcquireBufTakesFromItsClass(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of releases")
	}
	// One P, so every release and acquire below meets the same per-P cache.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	emptyBufPool()
	ReleaseBuf(make([]byte, 0, 32<<10))
	ReleaseBuf(make([]byte, 0, minBufCap))
	allocs := testing.AllocsPerRun(100, func() {
		b := AcquireBuf(20 << 10)
		if cap(b) < 20<<10 {
			t.Fatalf("AcquireBuf(20 KiB) returned cap %d", cap(b))
		}
		ReleaseBuf(b)
	})
	if allocs != 0 {
		t.Errorf("AcquireBuf(20 KiB) with a 32 KiB buffer pooled: %.1f allocs per call, want 0", allocs)
	}
	if b := AcquireBuf(100); cap(b) >= 20<<10 {
		t.Errorf("AcquireBuf(100) took the large buffer: cap %d", cap(b))
	}
}

func TestReleaseBufDropsNilAndOversized(t *testing.T) {
	emptyBufPool()
	ReleaseBuf(nil)
	ReleaseBuf(make([]byte, 0, minBufCap-1))
	ReleaseBuf(make([]byte, 0, maxPooledBuf+1))
	if b := AcquireBuf(0); cap(b) != minBufCap {
		t.Fatalf("after releasing nil, an undersized and an oversized buffer, AcquireBuf(0) has cap %d: want a fresh %d", cap(b), minBufCap)
	}
	if b := AcquireBuf(maxPooledBuf); cap(b) != maxPooledBuf {
		t.Fatalf("after releasing an oversized buffer, AcquireBuf(%d) has cap %d: want a fresh %d", maxPooledBuf, cap(b), maxPooledBuf)
	}
}

// A recycled buffer comes back at its class size, which every buffer filed
// in that class is at least: filled to its capacity, it writes only memory
// it owns. Buffers of capacities across every class go round, with a
// collection between rounds, so under -race checkptr sees each rebuilt slice.
func TestRecycledBufCapacity(t *testing.T) {
	for round := 0; round < 3; round++ {
		for c := minBufCap; c <= maxPooledBuf; c = c*3/2 + 1 {
			ReleaseBuf(make([]byte, 7, c))
			b := AcquireBuf(c / 2)
			if len(b) != 0 || cap(b) < c/2 {
				t.Fatalf("AcquireBuf(%d): len %d cap %d", c/2, len(b), cap(b))
			}
			b = b[:cap(b)]
			for i := range b {
				b[i] = byte(i)
			}
			ReleaseBuf(b)
		}
		runtime.GC()
	}
}
