package blobstore

import (
	"io"
	"os"
	"sort"

	"dsb/internal/rpc"
)

// WithChunkSize overrides the chunk size.
func WithChunkSize(n int64) Option {
	return func(s *Store) {
		if n > 0 {
			s.chunkSize = n
		}
	}
}

// WithDir spills chunks to files under dir instead of memory.
func WithDir(dir string) Option {
	return func(s *Store) { s.dir = dir }
}

// Open returns a streaming reader over the blob.
func (s *Store) Open(name string) (io.Reader, error) {
	if _, err := s.Stat(name); err != nil {
		return nil, err
	}
	return &reader{store: s, name: name}, nil
}

type reader struct {
	store *Store
	name  string
	off   int64
}

func (r *reader) Read(p []byte) (int, error) {
	m, err := r.store.Stat(r.name)
	if err != nil {
		return 0, err
	}
	if r.off >= m.Size {
		return 0, io.EOF
	}
	n, err := r.store.ReadAt(r.name, p, r.off)
	r.off += int64(n)
	if err == io.EOF && n > 0 {
		err = nil
	}
	return n, err
}

// Delete removes a blob, reporting whether it existed.
func (s *Store) Delete(name string) bool {
	s.mu.Lock()
	m, ok := s.metas[name]
	delete(s.metas, name)
	delete(s.data, name)
	s.mu.Unlock()
	if ok && s.dir != "" {
		for i := 0; i < m.Chunks; i++ {
			os.Remove(s.chunkPath(name, i)) //nolint:errcheck // best-effort cleanup
		}
	}
	return ok
}

// List returns blob names, sorted.
func (s *Store) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.metas))
	for n := range s.metas {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ReadAt fills p from the blob at offset off, with io.ReaderAt semantics.
func (s *Store) ReadAt(name string, p []byte, off int64) (int, error) {
	m, err := s.Stat(name)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, rpc.Errorf(rpc.CodeBadRequest, "blobstore: negative offset")
	}
	n := 0
	for n < len(p) && off < m.Size {
		ci := int(off / s.chunkSize)
		chunk, err := s.Chunk(name, ci)
		if err != nil {
			return n, err
		}
		inner := off % s.chunkSize
		c := copy(p[n:], chunk[inner:])
		n += c
		off += int64(c)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
