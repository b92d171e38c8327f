// Code generated by codecgen. DO NOT EDIT.
//
// Wire-compatible fast-path marshalers for this package's hot message
// types: same positional encoding as internal/codec's reflect plans,
// without the per-field reflect.Value dispatch. Regenerate with
// `make codecgen`; `make codecgen-check` fails CI on drift.

package docstore

import (
	"slices"

	"dsb/internal/codec"
)

func init() {
	codec.Register[Doc](func(b []byte, v any) ([]byte, error) {
		m := v.(Doc)
		return m.AppendTo(b)
	})
	codec.Register[PutReq](func(b []byte, v any) ([]byte, error) {
		m := v.(PutReq)
		return m.AppendTo(b)
	})
	codec.Register[GetReq](func(b []byte, v any) ([]byte, error) {
		m := v.(GetReq)
		return m.AppendTo(b)
	})
	codec.Register[GetResp](func(b []byte, v any) ([]byte, error) {
		m := v.(GetResp)
		return m.AppendTo(b)
	})
	codec.Register[FindReq](func(b []byte, v any) ([]byte, error) {
		m := v.(FindReq)
		return m.AppendTo(b)
	})
	codec.Register[FindResp](func(b []byte, v any) ([]byte, error) {
		m := v.(FindResp)
		return m.AppendTo(b)
	})
	codec.Register[ListPrependReq](func(b []byte, v any) ([]byte, error) {
		m := v.(ListPrependReq)
		return m.AppendTo(b)
	})
	codec.Register[ListPrependResp](func(b []byte, v any) ([]byte, error) {
		m := v.(ListPrependResp)
		return m.AppendTo(b)
	})
	codec.Register[AddNumReq](func(b []byte, v any) ([]byte, error) {
		m := v.(AddNumReq)
		return m.AppendTo(b)
	})
	codec.Register[AddNumResp](func(b []byte, v any) ([]byte, error) {
		m := v.(AddNumResp)
		return m.AppendTo(b)
	})
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *Doc) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.ID))
	b = codec.AppendLen(b, len(m.Fields))
	if len(m.Fields) > 0 {
		k1s := make([]string, 0, len(m.Fields))
		for k1 := range m.Fields {
			k1s = append(k1s, k1)
		}
		if len(k1s) > 1 {
			slices.Sort(k1s)
		}
		for _, k1 := range k1s {
			b = codec.AppendString(b, string(k1))
			b = codec.AppendString(b, string(m.Fields[k1]))
		}
	}
	b = codec.AppendLen(b, len(m.Nums))
	if len(m.Nums) > 0 {
		k2s := make([]string, 0, len(m.Nums))
		for k2 := range m.Nums {
			k2s = append(k2s, k2)
		}
		if len(k2s) > 1 {
			slices.Sort(k2s)
		}
		for _, k2 := range k2s {
			b = codec.AppendString(b, string(k2))
			b = codec.AppendInt(b, int64(m.Nums[k2]))
		}
	}
	b = codec.AppendBytes(b, m.Body)
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *Doc) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *Doc) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.ID = string(v1)
		b = rest
	}
	{
		n2, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		m2 := make(map[string]string, codec.EagerLen(n2))
		for i2 := 0; i2 < n2; i2++ {
			var k2 string
			{
				v3, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				k2 = string(v3)
				b = rest
			}
			var mv2 string
			{
				v4, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				mv2 = string(v4)
				b = rest
			}
			m2[k2] = mv2
		}
		m.Fields = m2
	}
	{
		n5, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		m5 := make(map[string]int64, codec.EagerLen(n5))
		for i5 := 0; i5 < n5; i5++ {
			var k5 string
			{
				v6, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				k5 = string(v6)
				b = rest
			}
			var mv5 int64
			{
				v7, rest, derr := codec.DecInt(b)
				if derr != nil {
					return nil, derr
				}
				mv5 = int64(v7)
				b = rest
			}
			m5[k5] = mv5
		}
		m.Nums = m5
	}
	{
		v8, rest, derr := codec.DecBytes(b)
		if derr != nil {
			return nil, derr
		}
		m.Body = v8
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the Doc encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*Doc) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	var n1 int
	if n1, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i2 := 0; i2 < n1; i2++ {
		if _, b, err = codec.DecStringBytes(b); err != nil {
			return nil, err
		}
		if _, b, err = codec.DecStringBytes(b); err != nil {
			return nil, err
		}
	}
	var n3 int
	if n3, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i4 := 0; i4 < n3; i4++ {
		if _, b, err = codec.DecStringBytes(b); err != nil {
			return nil, err
		}
		if _, b, err = codec.DecInt(b); err != nil {
			return nil, err
		}
	}
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *PutReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	var err error
	_ = err
	b = codec.AppendString(b, string(m.Collection))
	if b, err = m.Doc.AppendTo(b); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *PutReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *PutReq) decodeFrom(b []byte, s string) ([]byte, error) {
	var err error
	_ = err
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Collection = string(v1)
		b = rest
	}
	if b, err = m.Doc.decodeFrom(b, s); err != nil {
		return nil, err
	}
	return b, nil
}

// SkipFrom returns b past the PutReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*PutReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if b, err = (*Doc)(nil).SkipFrom(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *GetReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Collection))
	b = codec.AppendString(b, string(m.ID))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *GetReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *GetReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Collection = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.ID = string(v2)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the GetReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*GetReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *GetResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	var err error
	_ = err
	if b, err = m.Doc.AppendTo(b); err != nil {
		return nil, err
	}
	b = codec.AppendBool(b, bool(m.Found))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *GetResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *GetResp) decodeFrom(b []byte, s string) ([]byte, error) {
	var err error
	_ = err
	if b, err = m.Doc.decodeFrom(b, s); err != nil {
		return nil, err
	}
	{
		v1, rest, derr := codec.DecBool(b)
		if derr != nil {
			return nil, derr
		}
		m.Found = bool(v1)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the GetResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*GetResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if b, err = (*Doc)(nil).SkipFrom(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecBool(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *FindReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Collection))
	b = codec.AppendString(b, string(m.Field))
	b = codec.AppendString(b, string(m.Value))
	b = codec.AppendInt(b, int64(m.Limit))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *FindReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *FindReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Collection = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Field = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Value = string(v3)
		b = rest
	}
	{
		v4, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Limit = int64(v4)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the FindReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*FindReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecInt(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *FindResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	var err error
	_ = err
	b = codec.AppendLen(b, len(m.Docs))
	for i1 := range m.Docs {
		if b, err = m.Docs[i1].AppendTo(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *FindResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *FindResp) decodeFrom(b []byte, s string) ([]byte, error) {
	var err error
	_ = err
	{
		n1, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s1 := make([]Doc, 0, codec.EagerLen(n1))
		for i1 := 0; i1 < n1; i1++ {
			var e1 Doc
			if b, err = e1.decodeFrom(b, s); err != nil {
				return nil, err
			}
			s1 = append(s1, e1)
		}
		m.Docs = s1
	}
	return b, nil
}

// SkipFrom returns b past the FindResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*FindResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	var n1 int
	if n1, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i2 := 0; i2 < n1; i2++ {
		if b, err = (*Doc)(nil).SkipFrom(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *ListPrependReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Collection))
	b = codec.AppendString(b, string(m.ID))
	b = codec.AppendString(b, string(m.Value))
	b = codec.AppendInt(b, int64(m.Cap))
	b = codec.AppendBool(b, bool(m.Unique))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *ListPrependReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *ListPrependReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Collection = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.ID = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Value = string(v3)
		b = rest
	}
	{
		v4, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Cap = int64(v4)
		b = rest
	}
	{
		v5, rest, derr := codec.DecBool(b)
		if derr != nil {
			return nil, derr
		}
		m.Unique = bool(v5)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the ListPrependReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*ListPrependReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecInt(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecBool(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *ListPrependResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendInt(b, int64(m.Len))
	b = codec.AppendBool(b, bool(m.Inserted))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *ListPrependResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, "")
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *ListPrependResp) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Len = int64(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecBool(b)
		if derr != nil {
			return nil, derr
		}
		m.Inserted = bool(v2)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the ListPrependResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*ListPrependResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecInt(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecBool(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *AddNumReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Collection))
	b = codec.AppendString(b, string(m.ID))
	b = codec.AppendString(b, string(m.Field))
	b = codec.AppendInt(b, int64(m.Delta))
	b = codec.AppendInt(b, int64(m.Floor))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *AddNumReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *AddNumReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Collection = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.ID = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Field = string(v3)
		b = rest
	}
	{
		v4, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Delta = int64(v4)
		b = rest
	}
	{
		v5, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Floor = int64(v5)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the AddNumReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*AddNumReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecInt(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecInt(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *AddNumResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendInt(b, int64(m.Value))
	b = codec.AppendBool(b, bool(m.Found))
	b = codec.AppendBool(b, bool(m.OK))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *AddNumResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, "")
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *AddNumResp) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Value = int64(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecBool(b)
		if derr != nil {
			return nil, derr
		}
		m.Found = bool(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecBool(b)
		if derr != nil {
			return nil, derr
		}
		m.OK = bool(v3)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the AddNumResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*AddNumResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecInt(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecBool(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecBool(b); err != nil {
		return nil, err
	}
	return b, nil
}
