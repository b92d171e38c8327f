// Package blobstore implements the suite's bulk file storage — the role
// NFS plays for movie files in the Media service. Blobs are stored as
// fixed-size chunks so readers can stream ranges without loading whole
// files, which is how the nginx-hls streaming tier serves HTTP live
// streaming segments. The store keeps chunks in memory; its tests also run
// it over a directory.
package blobstore

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
	dir       string // "" = memory only

	mu    sync.RWMutex
	metas map[string]Meta
	data  map[string][][]byte // name -> chunks (memory mode)
}

// Option configures a Store.
type Option func(*Store)

// New creates a blob store.
func New(opts ...Option) *Store {
	s := &Store{
		chunkSize: DefaultChunkSize,
		metas:     make(map[string]Meta),
		data:      make(map[string][][]byte),
	}
	for _, o := range opts {
		o(s)
	}
	return s
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
	if s.dir != "" {
		for i, chunk := range chunks {
			if err := os.WriteFile(s.chunkPath(name, i), chunk, 0o644); err != nil {
				return Meta{}, err
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metas[name] = meta
	if s.dir == "" {
		s.data[name] = chunks
	}
	return meta, nil
}

func (s *Store) chunkPath(name string, i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%08x-%d.chunk", crc32.ChecksumIEEE([]byte(name)), i))
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
	if s.dir != "" {
		return os.ReadFile(s.chunkPath(name, i))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	chunk := s.data[name][i]
	out := make([]byte, len(chunk))
	copy(out, chunk)
	return out, nil
}
