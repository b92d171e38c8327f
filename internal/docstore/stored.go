package docstore

import (
	"bytes"
	"encoding/binary"

	"dsb/internal/codec"
)

// The stored form of a document is its canonical wire encoding — exactly the
// bytes (*Doc).AppendTo writes: ID, fields by ascending key, nums by ascending
// key, body, every length and integer in its shortest varint. Canonical makes
// equal documents equal bytes, so a replace compares fields sections instead
// of maps and what the store indexes is what a map decode would have kept.
// This file reads that form without building a Doc.

// reader cuts values off the front of an encoding. After a malformed value
// it yields zeros and stays bad, so a caller reads a whole shape and checks
// once.
type reader struct {
	b   []byte
	bad bool
	// padded records a varint longer than its shortest form: valid to the
	// decoders, never written by the encoders.
	padded bool
}

// varint consumes the w-byte varint at the front; w <= 0 is a malformed one.
func (r *reader) varint(w int) {
	if w <= 0 {
		r.b, r.bad = nil, true
		return
	}
	r.padded = r.padded || (w > 1 && r.b[w-1] == 0)
	r.b = r.b[w:]
}

// count reads the length of a string or of a collection, under the decoders'
// bound; either has at least that many bytes left.
func (r *reader) count() int {
	n, rest, err := codec.DecLen(r.b)
	if r.varint(len(r.b) - len(rest)); err != nil || n > len(r.b) {
		r.b, r.bad = nil, true
		return 0
	}
	return n
}

// str reads a length-prefixed string without copying it.
func (r *reader) str() []byte {
	n := r.count()
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *reader) int() int64 {
	v, w := binary.Varint(r.b)
	r.varint(w)
	return v
}

// layout is where the parts of an encoded Doc start: the ID's bytes, the
// field count (where the ID ends), the num count and the body's length
// prefix. The indexed fields are enc[fields:nums], the nums enc[nums:body].
type layout struct{ id, fields, nums, body int }

// layoutOf finds the parts of enc and reports whether enc is one canonical
// Doc encoding, allocating nothing. Stored bytes always are.
func layoutOf(enc []byte) (p layout, ok bool) {
	r := reader{b: enc}
	ascending := true
	pairs := func(value func()) int {
		at := len(enc) - len(r.b)
		var last []byte
		for i, n := 0, r.count(); i < n && !r.bad; i++ {
			k := r.str()
			ascending = ascending && (i == 0 || bytes.Compare(last, k) < 0)
			last = k
			value()
		}
		return at
	}
	id := r.str()
	p.fields = pairs(func() { r.str() })
	p.id = p.fields - len(id)
	p.nums = pairs(func() { r.int() })
	p.body = len(enc) - len(r.b)
	r.str()
	return p, !r.bad && !r.padded && ascending && len(r.b) == 0
}

// canonical returns doc, one wire encoding of a Doc, in canonical form with
// its layout: doc itself when it already is canonical, as from every encoder
// in the tree, and otherwise (repeated or unsorted keys, padded varints) the
// re-encoding of what it decodes to. The error is the decoder's.
func canonical(doc []byte) ([]byte, layout, error) {
	p, ok := layoutOf(doc)
	if !ok {
		var d Doc
		if rest, err := d.DecodeFrom(doc); err != nil {
			return nil, p, err
		} else if len(rest) != 0 {
			return nil, p, codec.ErrTrailingBytes
		}
		doc = encode(&d)
		p, _ = layoutOf(doc)
	}
	return doc, p, nil
}

// encode returns d's canonical encoding in a slice of exactly its size.
func encode(d *Doc) []byte {
	var scratch [512]byte
	enc, _ := d.AppendTo(scratch[:0]) // fails only on a nil receiver
	return bytes.Clone(enc)
}

// decode rebuilds the Doc from stored bytes; it shares nothing with them.
func decode(enc []byte) (d Doc) {
	d.DecodeFrom(enc) //nolint:errcheck // stored bytes were validated on the way in
	return d
}
