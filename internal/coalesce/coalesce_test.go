package coalesce

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/vtime"
)

// TestConcurrentMissCollapse is the package's reason to exist: N goroutines
// missing on one key perform exactly one backend fetch.
func TestConcurrentMissCollapse(t *testing.T) {
	vtime.Run(t, func() {
		var g Group[string]
		var fetches atomic.Int64
		const n = 32

		gate := make(chan struct{})
		entered := make(chan struct{}, 1)
		var wg sync.WaitGroup
		results := make([]string, n)
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = g.Do(context.Background(), "hot", func(context.Context) (string, error) {
					fetches.Add(1)
					select {
					case entered <- struct{}{}:
					default:
					}
					<-gate // hold the flight open until every caller has joined
					return "value", nil
				})
			}(i)
		}
		<-entered
		vtime.Wait() // every other caller is parked on the flight
		if got := fetches.Load(); got != 1 || g.Inflight() != 1 {
			t.Fatalf("with every caller in: %d fetches, %d flights, want one of each", got, g.Inflight())
		}
		close(gate)
		wg.Wait()

		if got := fetches.Load(); got != 1 {
			t.Fatalf("fetches = %d, want 1", got)
		}
		for i := 0; i < n; i++ {
			if errs[i] != nil || results[i] != "value" {
				t.Fatalf("caller %d = %q, %v", i, results[i], errs[i])
			}
		}
		if g.Inflight() != 0 {
			t.Fatalf("inflight = %d after completion", g.Inflight())
		}
	})
}

// TestErrorPropagatesAndIsNotCached: every waiter of a failed flight sees
// the error, and the next call retries the fetch instead of replaying it.
func TestErrorPropagatesAndIsNotCached(t *testing.T) {
	vtime.Run(t, func() {
		var g Group[int]
		boom := errors.New("backend down")
		var fetches atomic.Int64

		gate := make(chan struct{})
		const n = 8
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = g.Do(context.Background(), "k", func(context.Context) (int, error) {
					fetches.Add(1)
					<-gate
					return 0, boom
				})
			}(i)
		}
		vtime.Wait()
		if got := fetches.Load(); got != 1 || g.Inflight() != 1 {
			t.Fatalf("callers never converged on one flight: %d fetches, %d flights", got, g.Inflight())
		}
		close(gate)
		wg.Wait()
		if fetches.Load() != 1 {
			t.Fatalf("fetches = %d, want 1", fetches.Load())
		}
		for i, err := range errs {
			if !errors.Is(err, boom) {
				t.Fatalf("caller %d err = %v, want %v", i, err, boom)
			}
		}

		// The failure is not cached: a later call fetches again and can succeed.
		v, err := g.Do(context.Background(), "k", func(context.Context) (int, error) {
			fetches.Add(1)
			return 42, nil
		})
		if err != nil || v != 42 {
			t.Fatalf("retry = %d, %v", v, err)
		}
		if fetches.Load() != 2 {
			t.Fatalf("fetches = %d, want 2 (error must not be cached)", fetches.Load())
		}
	})
}

// TestWaiterContextCancel: a waiter whose context dies leaves the flight
// without killing it; the remaining waiters still get the result.
func TestWaiterContextCancel(t *testing.T) {
	vtime.Run(t, func() {
		var g Group[string]
		gate := make(chan struct{})
		started := make(chan struct{})

		go g.Do(context.Background(), "k", func(context.Context) (string, error) { //nolint:errcheck
			close(started)
			<-gate
			return "late", nil
		})
		<-started

		ctx, cancel := context.WithCancel(context.Background())
		canceled := make(chan error, 1)
		go func() {
			_, err := g.Do(ctx, "k", func(context.Context) (string, error) {
				t.Error("waiter must not fetch")
				return "", nil
			})
			canceled <- err
		}()
		vtime.Wait() // the waiter has joined the flight
		cancel()
		select {
		case err := <-canceled:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled waiter err = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("canceled waiter did not return")
		}

		// A patient waiter still gets the flight's result.
		patient := make(chan string, 1)
		go func() {
			v, _ := g.Do(context.Background(), "k", func(context.Context) (string, error) {
				return "fresh", nil
			})
			patient <- v
		}()
		vtime.Wait() // the patient waiter has joined too
		close(gate)
		if v := <-patient; v != "late" {
			t.Fatalf("patient waiter got %q, want the flight result", v)
		}
	})
}

// TestDistinctKeysDoNotCoalesce: flights are per key.
func TestDistinctKeysDoNotCoalesce(t *testing.T) {
	var g Group[int]
	var fetches atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.Do(context.Background(), string(rune('a'+i)), func(context.Context) (int, error) { //nolint:errcheck
				fetches.Add(1)
				return i, nil
			})
		}(i)
	}
	wg.Wait()
	if fetches.Load() != 4 {
		t.Fatalf("fetches = %d, want 4", fetches.Load())
	}
}

// TestPanicFailsWaitersAndRethrows: a panicking fetch must not strand
// waiters, and the panic still unwinds the winner.
func TestPanicFailsWaitersAndRethrows(t *testing.T) {
	vtime.Run(t, func() {
		var g Group[int]
		gate := make(chan struct{})
		started := make(chan struct{})
		winnerPanicked := make(chan any, 1)
		go func() {
			defer func() { winnerPanicked <- recover() }()
			g.Do(context.Background(), "k", func(context.Context) (int, error) { //nolint:errcheck
				close(started)
				<-gate
				panic("fetch exploded")
			})
		}()
		<-started
		waiterErr := make(chan error, 1)
		go func() {
			_, err := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 0, nil })
			waiterErr <- err
		}()
		vtime.Wait() // the waiter has joined the flight
		close(gate)
		if r := <-winnerPanicked; r == nil {
			t.Fatal("panic swallowed in winner")
		}
		select {
		case err := <-waiterErr:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("waiter err = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter stranded after fetch panic")
		}
		// The group remains usable.
		if v, err := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil }); err != nil || v != 7 {
			t.Fatalf("post-panic Do = %d, %v", v, err)
		}
	})
}
