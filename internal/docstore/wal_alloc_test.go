package docstore

import (
	"path/filepath"
	"runtime"
	"testing"
)

// TestWALAppendBufferReuse pins the WAL's append path: appends serialize on
// w.mu, encode the record's head into w.buf and write the stored Doc bytes
// as they are, so a steady stream of records must not allocate a marshal
// buffer per append. The regression this guards against — codec.Marshal per
// record — allocates at least the encoded size (>8 KiB here) every append,
// which the TotalAlloc budget below catches with an order of magnitude to
// spare.
func TestWALAppendBufferReuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alloc.wal")
	_, w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const records = 1000
	doc := encode(&Doc{
		ID:     "doc-under-test",
		Fields: map[string]string{"author": "alloc-guard"},
		Nums:   map[string]int64{"ts": 12345},
		Body:   make([]byte, 8<<10),
	})
	// Warm up: first append grows w.buf to the head size; later appends
	// reuse it.
	if err := w.append("posts", doc); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < records; i++ {
		if err := w.append("posts", doc); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)

	grew := after.TotalAlloc - before.TotalAlloc
	// Re-encoding from scratch would cost records * >8 KiB > 8 MiB; buffer
	// reuse leaves only incidental test-harness noise. 1 MiB splits the two
	// regimes with a wide margin on both sides.
	if grew > 1<<20 {
		t.Fatalf("appending %d records allocated %d bytes; encode scratch is not being reused", records, grew)
	}
}
