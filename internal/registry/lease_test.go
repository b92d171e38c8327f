package registry

import (
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/vtime"
)

func TestLeaseExpiryEvicts(t *testing.T) {
	vtime.Run(t, func() {
		r := New()
		ch := r.Changed("svc")
		start := time.Now()
		l := r.RegisterLease("svc", "a:1", 30*time.Millisecond)
		// Registration itself is a membership change.
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatal("no notification on lease registration")
		}
		ch = r.Changed("svc")
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatal("no notification on lease expiry")
		}
		if at := time.Since(start); at != 30*time.Millisecond {
			t.Fatalf("evicted %v after registration, want the 30ms TTL", at)
		}
		if got := r.Lookup("svc"); len(got) != 0 {
			t.Fatalf("after expiry = %v", got)
		}
		if !l.Expired() {
			t.Fatal("lease not marked expired")
		}
		if l.Renew() {
			t.Fatal("Renew after expiry must report false")
		}
	})
}

func TestLeaseRenewKeepsAlive(t *testing.T) {
	vtime.Run(t, func() {
		r := New()
		l := r.RegisterLease("svc", "a:1", 60*time.Millisecond)
		ch := r.Changed("svc")
		deadline := time.Now().Add(250 * time.Millisecond)
		for time.Now().Before(deadline) {
			if !l.Renew() {
				t.Fatal("Renew failed while heartbeating")
			}
			vtime.Advance(15 * time.Millisecond)
		}
		// Several TTLs of heartbeats later the address is still present and no
		// watcher ever fired: renewal is invisible to balancers.
		select {
		case <-ch:
			t.Fatal("renewal notified watchers")
		default:
		}
		if got := r.Lookup("svc"); len(got) != 1 || got[0] != "a:1" {
			t.Fatalf("after renewals = %v", got)
		}
		l.Release()
		if got := r.Lookup("svc"); len(got) != 0 {
			t.Fatalf("after release = %v", got)
		}
	})
}

// A crashed replica's lease expiry must notify Changed exactly once: the
// eviction races nothing — a late Release or a second timer fire must not
// re-notify, or balancers would re-resolve the tier twice per crash.
func TestLeaseExpiryNotifiesExactlyOnce(t *testing.T) {
	vtime.Run(t, func() {
		r := New()
		l := r.RegisterLease("svc", "a:1", 20*time.Millisecond)

		var fires atomic.Int64
		stop := make(chan struct{})
		watcherDone := make(chan struct{})
		go func() {
			defer close(watcherDone)
			for {
				ch := r.Changed("svc")
				select {
				case <-ch:
					fires.Add(1)
				case <-stop:
					return
				}
			}
		}()

		vtime.Advance(120 * time.Millisecond) // several TTLs past expiry
		l.Release()                           // late release after expiry: no second notification
		vtime.Advance(40 * time.Millisecond)
		close(stop)
		<-watcherDone

		if got := fires.Load(); got != 1 {
			t.Fatalf("Changed fired %d times for one eviction, want 1", got)
		}
		if got := r.Lookup("svc"); len(got) != 0 {
			t.Fatalf("after expiry = %v", got)
		}
	})
}

func TestLeaseReleaseIdempotent(t *testing.T) {
	r := New()
	l := r.RegisterLease("svc", "a:1", time.Hour)
	ch := r.Changed("svc")
	l.Release()
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("no notification on release")
	}
	ch = r.Changed("svc")
	l.Release() // idempotent
	select {
	case <-ch:
		t.Fatal("second Release notified watchers")
	case <-time.After(10 * time.Millisecond):
	}
}
