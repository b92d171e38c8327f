package mq

import (
	"strings"
	"sync"
)

// DefaultDedupCap bounds a Dedup's memory when Cap is unset. Matched to the
// broker's tombstone window: a redelivery arriving after eviction is simply
// re-processed, so consumers pair Dedup with an idempotent write (unique
// list prepend, set-semantics index) as the backstop.
const DefaultDedupCap = 4096

// Dedup is a bounded seen-key set (FIFO eviction) — the consumer half of
// idempotent consumption. A consumer checks Has before delivering and calls
// Mark only after a successful delivery, so a redelivered key is settled
// without repeating its side effects while a failed attempt stays
// re-deliverable.
//
// The zero value is ready to use. Keys dedup within one consumer replica
// only; at-least-once delivery across replicas is absorbed by the
// idempotent write behind it.
type Dedup struct {
	// Cap bounds the set (default DefaultDedupCap).
	Cap int

	mu    sync.Mutex
	seen  map[string]struct{}
	order []string
}

// Has reports whether key was already marked processed. Unkeyed messages
// (key == "") have no identity to dedup on and are never "seen".
func (d *Dedup) Has(key string) bool {
	if key == "" {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.seen[key]
	return ok
}

// Mark records key as processed, evicting the oldest entry past Cap.
func (d *Dedup) Mark(key string) {
	if key == "" {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seen == nil {
		d.seen = make(map[string]struct{})
	}
	if _, ok := d.seen[key]; ok {
		return
	}
	cap := d.Cap
	if cap <= 0 {
		cap = DefaultDedupCap
	}
	key = strings.Clone(key) // a decoded key shares its message's memory
	d.seen[key] = struct{}{}
	d.order = append(d.order, key)
	if len(d.order) > cap {
		delete(d.seen, d.order[0])
		d.order = d.order[1:]
	}
}
