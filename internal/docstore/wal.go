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

// WALRecord is the codec-encoded log entry: what each record decodes to. The
// log itself is written and replayed in wire form (Kind, Collection, then the
// stored Doc bytes as they are), which is this type's positional encoding.
type WALRecord struct {
	Kind       byte
	Collection string
	Doc        Doc
}

// WAL is an append-only write-ahead log backing a Store.
type WAL struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	buf []byte // record-head scratch, guarded by mu
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
	w := &WAL{f: f, w: bufio.NewWriter(f), buf: make([]byte, 4, 64)}
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
		// The record's tail is the Doc; it becomes the stored slice as it is.
		kind, rest, err := codec.DecUint8(body)
		if err != nil {
			return offset, nil // corrupt tail
		}
		name, rest, err := codec.DecString(rest)
		if err != nil {
			return offset, nil
		}
		enc, p, err := canonical(rest)
		if err != nil {
			return offset, nil
		}
		col := s.Collection(name)
		col.mu.Lock()
		switch kind {
		case opPut:
			col.apply(enc)
		case opDelete:
			col.remove(string(enc[p.id:p.fields]))
		}
		col.mu.Unlock()
		offset += int64(4 + n)
	}
}

func (w *WAL) append(kind byte, collection string, doc []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("docstore: wal closed")
	}
	if err := w.writeRecord(w.w, kind, collection, doc); err != nil {
		return err
	}
	return w.w.Flush()
}

// writeRecord frames one record onto bw: a length, the record's head encoded
// into the WAL's own scratch (w.mu is held), and doc's bytes as they are —
// nothing is re-encoded and nothing allocated per record.
func (w *WAL) writeRecord(bw *bufio.Writer, kind byte, collection string, doc []byte) error {
	w.buf = codec.AppendString(codec.AppendUint(w.buf[:4], uint64(kind)), collection)
	binary.LittleEndian.PutUint32(w.buf, uint32(len(w.buf)-4+len(doc)))
	if _, err := bw.Write(w.buf); err != nil {
		return err
	}
	_, err := bw.Write(doc)
	return err
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
