// Package blobstore implements the suite's bulk file storage — the role
// NFS plays for movie files in the Media service. Blobs are stored as
// fixed-size chunks so readers can stream ranges without loading whole
// files, which is how the nginx-hls streaming tier serves HTTP live
// streaming segments. The store keeps chunks in memory.
package blobstore

import (
	"hash/crc32"
	"sync"

	"dsb/internal/rpc"
)

// DefaultChunkSize matches common HLS segment sizing at our synthetic
// bitrates; tests override it to exercise chunk boundaries.
const DefaultChunkSize = 256 << 10

// Meta describes a stored blob.
type Meta struct {
	Name     string
	Size     int64
	Chunks   int
	Checksum uint32 // CRC-32 (IEEE) of the full content
}

// Store is a chunked blob store.
type Store struct {
	chunkSize int64

	mu    sync.RWMutex
	metas map[string]Meta
	data  map[string][][]byte // name -> chunks
}

// New creates a blob store.
func New() *Store { return newStore(DefaultChunkSize) }

// newStore is New with the chunk size given.
func newStore(chunkSize int64) *Store {
	return &Store{
		chunkSize: chunkSize,
		metas:     make(map[string]Meta),
		data:      make(map[string][][]byte),
	}
}

// Put stores content under name, replacing any existing blob.
func (s *Store) Put(name string, content []byte) (Meta, error) {
	if name == "" {
		return Meta{}, rpc.Errorf(rpc.CodeBadRequest, "blobstore: empty name")
	}
	nChunks := int((int64(len(content)) + s.chunkSize - 1) / s.chunkSize)
	meta := Meta{
		Name:     name,
		Size:     int64(len(content)),
		Chunks:   nChunks,
		Checksum: crc32.ChecksumIEEE(content),
	}
	chunks := make([][]byte, 0, nChunks)
	for off := int64(0); off < int64(len(content)); off += s.chunkSize {
		end := off + s.chunkSize
		if end > int64(len(content)) {
			end = int64(len(content))
		}
		chunk := make([]byte, end-off)
		copy(chunk, content[off:end])
		chunks = append(chunks, chunk)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metas[name] = meta
	s.data[name] = chunks
	return meta, nil
}

// Stat returns a blob's metadata.
func (s *Store) Stat(name string) (Meta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.metas[name]
	if !ok {
		return Meta{}, rpc.NotFoundf("blobstore: no blob %q", name)
	}
	return m, nil
}

// Chunk returns the i-th chunk of a blob — one "HLS segment".
func (s *Store) Chunk(name string, i int) ([]byte, error) {
	m, err := s.Stat(name)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= m.Chunks {
		return nil, rpc.Errorf(rpc.CodeBadRequest, "blobstore: %s: chunk %d out of %d", name, i, m.Chunks)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	chunk := s.data[name][i]
	out := make([]byte, len(chunk))
	copy(out, chunk)
	return out, nil
}
