package blobstore

import (
	"bytes"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dsb/internal/rpc"
)

func randomBytes(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 99))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func TestPutStatChunk(t *testing.T) {
	s := newStore(100)
	content := randomBytes(250, 1)
	m, err := s.Put("movie.mp4", content)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size != 250 || m.Chunks != 3 || m.Checksum != crc32.ChecksumIEEE(content) {
		t.Fatalf("meta = %+v", m)
	}
	got, err := s.Stat("movie.mp4")
	if err != nil || got != m {
		t.Fatalf("Stat = %+v, %v", got, err)
	}
	c2, err := s.Chunk("movie.mp4", 2)
	if err != nil || len(c2) != 50 {
		t.Fatalf("Chunk(2) len = %d, %v", len(c2), err)
	}
	if !bytes.Equal(c2, content[200:]) {
		t.Fatal("chunk content mismatch")
	}
	if _, err := s.Chunk("movie.mp4", 3); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("out-of-range chunk: %v", err)
	}
	if _, err := s.Stat("ghost"); !rpc.IsCode(err, rpc.CodeNotFound) {
		t.Fatalf("missing blob: %v", err)
	}
	if _, err := s.Put("", nil); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("empty name: %v", err)
	}
}

func TestChunkReturnsCopy(t *testing.T) {
	s := newStore(10)
	s.Put("b", []byte("0123456789")) //nolint:errcheck
	c, _ := s.Chunk("b", 0)
	c[0] = 'X'
	again, _ := s.Chunk("b", 0)
	if again[0] != '0' {
		t.Fatal("Chunk leaked internal buffer")
	}
}

func TestStreamingReaderIntegrity(t *testing.T) {
	s := newStore(64)
	content := randomBytes(1000, 2)
	s.Put("stream", content) //nolint:errcheck
	r, err := s.Open("stream")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("streamed bytes differ from stored content")
	}
	if _, err := s.Open("ghost"); err == nil {
		t.Fatal("Open missing blob succeeded")
	}
}

func TestReadAtSemantics(t *testing.T) {
	s := newStore(16)
	content := []byte("abcdefghijklmnopqrstuvwxyz")
	s.Put("b", content) //nolint:errcheck
	p := make([]byte, 10)
	n, err := s.ReadAt("b", p, 5)
	if err != nil || n != 10 || string(p) != "fghijklmno" {
		t.Fatalf("ReadAt = %q, %d, %v", p, n, err)
	}
	// Read past the end returns io.EOF with partial data.
	n, err = s.ReadAt("b", p, 20)
	if err != io.EOF || n != 6 || string(p[:n]) != "uvwxyz" {
		t.Fatalf("ReadAt tail = %q, %d, %v", p[:n], n, err)
	}
	if _, err := s.ReadAt("b", p, -1); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("negative offset: %v", err)
	}
}

func TestDeleteAndList(t *testing.T) {
	s := New()
	s.Put("b", []byte("x")) //nolint:errcheck
	s.Put("a", []byte("y")) //nolint:errcheck
	if got := s.List(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("List = %v", got)
	}
	if !s.Delete("a") {
		t.Fatal("Delete existing = false")
	}
	if s.Delete("a") {
		t.Fatal("Delete missing = true")
	}
	if got := s.List(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("List after delete = %v", got)
	}
}

// Property: any content round-trips through Put + sequential chunk reads,
// for any chunk size.
func TestChunkingRoundTripProperty(t *testing.T) {
	f := func(content []byte, chunkSize uint8) bool {
		cs := int64(chunkSize%63) + 1
		s := newStore(cs)
		m, err := s.Put("blob", content)
		if err != nil {
			return false
		}
		var got []byte
		for i := 0; i < m.Chunks; i++ {
			c, err := s.Chunk("blob", i)
			if err != nil {
				return false
			}
			got = append(got, c...)
		}
		return bytes.Equal(got, content) && m.Checksum == crc32.ChecksumIEEE(content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmptyBlob(t *testing.T) {
	s := New()
	m, err := s.Put("empty", nil)
	if err != nil || m.Size != 0 || m.Chunks != 0 {
		t.Fatalf("empty put: %+v, %v", m, err)
	}
	r, err := s.Open("empty")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := io.ReadAll(r); len(got) != 0 {
		t.Fatal("empty blob read returned data")
	}
}

func BenchmarkStreamRead(b *testing.B) {
	s := New()
	content := randomBytes(4<<20, 7)
	s.Put("movie", content) //nolint:errcheck
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := s.Open("movie")
		for {
			_, err := r.Read(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
