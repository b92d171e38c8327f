package docstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"dsb/internal/codec"
)

// WAL op kinds.
const (
	opPut    byte = 1
	opDelete byte = 2
)

// WALRecord is the codec-encoded log entry. It is exported so cmd/codecgen
// can emit a fast-path marshaler for it; the wire format is positional and
// unchanged from when the type was unexported.
type WALRecord struct {
	Kind       byte
	Collection string
	Doc        Doc
}

// WAL is an append-only write-ahead log backing a Store.
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	buf  []byte // reusable encode scratch, guarded by mu
	path string
}

// Open opens (creating if needed) a WAL-backed store at path, replaying any
// existing log into a fresh store. A torn final record (crash mid-append)
// is tolerated and truncated.
func Open(path string) (*Store, *WAL, error) {
	s := NewStore()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	valid, err := replay(f, s)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("docstore: replay %s: %w", path, err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &WAL{f: f, w: bufio.NewWriter(f), path: path}
	s.wal.Store(w)
	return s, w, nil
}

// replay applies complete records from f to s and returns the byte offset
// of the last complete record.
func replay(f *os.File, s *Store) (int64, error) {
	r := bufio.NewReader(f)
	var offset int64
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return offset, nil
			}
			return 0, err
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > 64<<20 {
			return offset, nil // corrupt length: treat as torn tail
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return offset, nil // torn record
			}
			return 0, err
		}
		var rec WALRecord
		if err := codec.Unmarshal(body, &rec); err != nil {
			return offset, nil // corrupt tail
		}
		col := s.Collection(rec.Collection)
		col.mu.Lock()
		switch rec.Kind {
		case opPut:
			col.putLocked(rec.Doc)
		case opDelete:
			if d, ok := col.docs[rec.Doc.ID]; ok {
				col.unindexLocked(d)
				delete(col.docs, rec.Doc.ID)
			}
		}
		col.mu.Unlock()
		offset += int64(4 + n)
	}
}

func (w *WAL) append(kind byte, collection string, d Doc) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("docstore: wal closed")
	}
	// Encode into the WAL's own scratch buffer: appends are serialized by
	// w.mu anyway, so one buffer amortizes across every record instead of a
	// fresh Marshal allocation per append.
	var err error
	w.buf, err = codec.AppendMarshal(w.buf[:0], WALRecord{Kind: kind, Collection: collection, Doc: d})
	if err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(w.buf)))
	if _, err := w.w.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	return w.w.Flush()
}

// Sync flushes buffered records to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Compact rewrites the log as a snapshot of the store's current contents,
// dropping superseded records (overwrites and deletes). The store must be
// quiescent for the duration of the call; concurrent mutations during a
// compaction may be lost from the rewritten log.
func (w *WAL) Compact(s *Store) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("docstore: wal closed")
	}
	tmpPath := w.path + ".compact"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(tmp)
	writeRec := func(collection string, d Doc) error {
		var err error
		w.buf, err = codec.AppendMarshal(w.buf[:0], WALRecord{Kind: opPut, Collection: collection, Doc: d})
		if err != nil {
			return err
		}
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(w.buf)))
		if _, err := bw.Write(lenBuf[:]); err != nil {
			return err
		}
		_, err = bw.Write(w.buf)
		return err
	}
	for _, name := range s.Collections() {
		for _, d := range s.Collection(name).All() {
			if err := writeRec(name, d); err != nil {
				tmp.Close()
				os.Remove(tmpPath) //nolint:errcheck
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		return err
	}
	// Swap the live handle to the compacted file, appending at its end.
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.w.Flush() //nolint:errcheck // old handle is being discarded
	w.f.Close() //nolint:errcheck
	w.f = f
	w.w = bufio.NewWriter(f)
	return nil
}

// Size returns the log's current byte size.
func (w *WAL) Size() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, errors.New("docstore: wal closed")
	}
	if err := w.w.Flush(); err != nil {
		return 0, err
	}
	st, err := w.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Close flushes and closes the log. The store remains usable in-memory but
// further mutations fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	err := w.f.Close()
	w.f = nil
	return err
}
