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
	// Held, not released, so each acquire finds the pool still empty.
	for _, tc := range []struct{ hint, want int }{
		{0, minBufCap},
		{minBufCap - 1, minBufCap},
		{4096, 4096},
		{maxPooledBuf + 1, maxPooledBuf},
		{1 << 30, maxPooledBuf},
	} {
		if b := AcquireBuf(tc.hint); len(b) != 0 || cap(b) != tc.want {
			t.Errorf("AcquireBuf(%d) on an empty pool: len %d cap %d, want 0 and %d", tc.hint, len(b), cap(b), tc.want)
		}
	}
}

func TestReleaseBufDropsNilAndOversized(t *testing.T) {
	emptyBufPool()
	ReleaseBuf(nil)
	ReleaseBuf(make([]byte, 0, maxPooledBuf+1))
	if b := AcquireBuf(0); cap(b) != minBufCap {
		t.Fatalf("after releasing nil and an oversized buffer, AcquireBuf(0) has cap %d: want a fresh %d", cap(b), minBufCap)
	}
}
