package svcutil

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/codec"
	"dsb/internal/kv"
	"dsb/internal/rpc"
	"dsb/internal/vtime"
)

// startCache boots a real kv tier over in-memory RPC and returns the typed
// client plus the raw cache for poisoning entries directly.
func startCache(t *testing.T) (mc KV, raw *kv.Cache, stop func()) {
	t.Helper()
	n := rpc.NewMem()
	srv := rpc.NewServer("mc")
	raw = kv.New(0)
	kv.RegisterService(srv, raw)
	addr, err := srv.Start(n, "mc:0")
	if err != nil {
		t.Fatal(err)
	}
	c := rpc.NewClient(n, "mc", addr)
	return KV{C: c}, raw, func() { c.Close(); srv.Close() }
}

func stringsReadPath(mc KV, fetches *atomic.Int64, data map[string][]string) *ReadPath[[]string] {
	return &ReadPath[[]string]{
		MC:  mc,
		TTL: time.Minute,
		Decode: func(b []byte) ([]string, error) {
			var v []string
			if err := codec.Unmarshal(b, &v); err != nil {
				return nil, err
			}
			return v, nil
		},
		Fetch: func(ctx context.Context, key string) ([]string, []byte, bool, error) {
			fetches.Add(1)
			v, ok := data[key]
			if !ok {
				return nil, nil, false, nil
			}
			enc, err := codec.Marshal(v)
			return v, enc, true, err
		},
	}
}

func TestReadPathHitMissPopulate(t *testing.T) {
	mc, _, stop := startCache(t)
	defer stop()
	var fetches atomic.Int64
	rp := stringsReadPath(mc, &fetches, map[string][]string{"k": {"a", "b"}})
	ctx := context.Background()

	v, found, err := rp.Get(ctx, "k")
	if err != nil || !found || len(v) != 2 {
		t.Fatalf("Get = %v, %v, %v", v, found, err)
	}
	// Second read is a cache hit: no new backing fetch.
	if _, _, err := rp.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if got := fetches.Load(); got != 1 {
		t.Fatalf("fetches = %d, want 1 (second read must hit cache)", got)
	}
	if _, found, err := rp.Get(ctx, "ghost"); err != nil || found {
		t.Fatalf("ghost = %v, %v", found, err)
	}
}

// Regression shape for the timeline bug: a corrupt cache entry that decodes
// to non-nil garbage plus an error must be purged and served from the
// backing store, not returned as truth.
func TestReadPathPurgesCorruptEntry(t *testing.T) {
	mc, raw, stop := startCache(t)
	defer stop()
	var fetches atomic.Int64
	rp := stringsReadPath(mc, &fetches, map[string][]string{"k": {"real"}})
	ctx := context.Background()

	// A valid []string encoding with trailing junk: codec.Unmarshal fills
	// the target with garbage before reporting ErrTrailingBytes — exactly
	// the partial-decode corruption the timeline service used to trust.
	enc, err := codec.Marshal([]string{"bogus"})
	if err != nil {
		t.Fatal(err)
	}
	raw.Set("k", append(enc, 0x00), 0)

	v, found, err := rp.Get(ctx, "k")
	if err != nil || !found || len(v) != 1 || v[0] != "real" {
		t.Fatalf("Get = %v, %v, %v (corrupt entry served?)", v, found, err)
	}
	if got := fetches.Load(); got != 1 {
		t.Fatalf("fetches = %d, want 1", got)
	}
	// The corrupt entry was replaced by the fresh encoding.
	if cached, ok := raw.Get("k"); !ok {
		t.Fatal("cache not repopulated after purge")
	} else {
		var got []string
		if err := codec.Unmarshal(cached, &got); err != nil || len(got) != 1 || got[0] != "real" {
			t.Fatalf("cached = %v, %v (corrupt entry not replaced)", got, err)
		}
	}
}

// Concurrent misses on one key collapse into a single backing fetch.
func TestReadPathCoalescesMisses(t *testing.T) {
	vtime.Run(t, func() {
		mc, _, stop := startCache(t)
		defer stop()
		var fetches atomic.Int64
		gate := make(chan struct{})
		rp := &ReadPath[[]string]{
			MC:  mc,
			TTL: time.Minute,
			Decode: func(b []byte) ([]string, error) {
				var v []string
				err := codec.Unmarshal(b, &v)
				return v, err
			},
			Fetch: func(ctx context.Context, key string) ([]string, []byte, bool, error) {
				fetches.Add(1)
				<-gate // hold the flight open so every reader joins it
				v := []string{"x"}
				enc, err := codec.Marshal(v)
				return v, enc, true, err
			},
		}
		ctx := context.Background()

		const readers = 24
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if v, found, err := rp.Get(ctx, "hot"); err != nil || !found || v[0] != "x" {
					t.Errorf("Get = %v, %v, %v", v, found, err)
				}
			}()
		}
		// Release the fetch once every reader is parked on the flight.
		vtime.Wait()
		if got := fetches.Load(); got != 1 {
			t.Fatalf("%d fetches with every reader in, want 1: not every reader joined the flight", got)
		}
		close(gate)
		wg.Wait()
		if got := fetches.Load(); got != 1 {
			t.Fatalf("fetches = %d, want 1 (stampede not coalesced)", got)
		}
	})
}

func TestReadPathNoCoalesceContrast(t *testing.T) {
	mc, raw, stop := startCache(t)
	defer stop()
	var fetches atomic.Int64
	rp := stringsReadPath(mc, &fetches, map[string][]string{"k": {"v"}})
	rp.NoCoalesce = true
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		raw.Delete("k")
		if _, _, err := rp.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	if got := fetches.Load(); got != 3 {
		t.Fatalf("fetches = %d, want 3 (NoCoalesce must hit the store per miss)", got)
	}
}

func TestParallel(t *testing.T) {
	vtime.Run(t, func() {
		const n = 100
		var (
			running, peak atomic.Int64
			done          [n]atomic.Bool
		)
		err := Parallel(4, n, func(i int) error {
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			vtime.Advance(100 * time.Microsecond)
			running.Add(-1)
			done[i].Store(true)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range done {
			if !done[i].Load() {
				t.Fatalf("index %d never ran", i)
			}
		}
		if p := peak.Load(); p != 4 {
			t.Fatalf("peak concurrency = %d, want 4", p)
		}
	})
}

func TestParallelFirstErrorEveryIndexRuns(t *testing.T) {
	var ran atomic.Int64
	wantErr := errors.New("boom")
	err := Parallel(3, 20, func(i int) error {
		ran.Add(1)
		if i == 5 {
			return fmt.Errorf("index 5: %w", wantErr)
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if got := ran.Load(); got != 20 {
		t.Fatalf("ran = %d, want 20 (an error must not cancel remaining work)", got)
	}
}

func TestParallelZeroAndClamps(t *testing.T) {
	if err := Parallel(4, 0, func(i int) error { t.Error("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	if err := Parallel(0, 5, func(i int) error { ran.Add(1); return nil }); err != nil || ran.Load() != 5 {
		t.Fatalf("workers=0: ran = %d, %v", ran.Load(), err)
	}
}
