// Code generated by codecgen. DO NOT EDIT.
//
// Wire-compatible fast-path marshalers for this package's hot message
// types: same positional encoding as internal/codec's reflect plans,
// without the per-field reflect.Value dispatch. Regenerate with
// `make codecgen`; `make codecgen-check` fails CI on drift.

package socialnetwork

import (
	"strconv"

	"dsb/internal/codec"
)

func init() {
	codec.Register[ComposePostReq](func(b []byte, v any) ([]byte, error) {
		m := v.(ComposePostReq)
		return m.AppendTo(b)
	})
	codec.Register[ComposePostResp](func(b []byte, v any) ([]byte, error) {
		m := v.(ComposePostResp)
		return m.AppendTo(b)
	})
	codec.Register[StorePostReq](func(b []byte, v any) ([]byte, error) {
		m := v.(StorePostReq)
		return m.AppendTo(b)
	})
	codec.Register[ReadPostsReq](func(b []byte, v any) ([]byte, error) {
		m := v.(ReadPostsReq)
		return m.AppendTo(b)
	})
	codec.Register[ReadPostsResp](func(b []byte, v any) ([]byte, error) {
		m := v.(ReadPostsResp)
		return m.AppendTo(b)
	})
	codec.Register[AppendTimelineReq](func(b []byte, v any) ([]byte, error) {
		m := v.(AppendTimelineReq)
		return m.AppendTo(b)
	})
	codec.Register[ReadTimelineReq](func(b []byte, v any) ([]byte, error) {
		m := v.(ReadTimelineReq)
		return m.AppendTo(b)
	})
	codec.Register[ReadTimelineResp](func(b []byte, v any) ([]byte, error) {
		m := v.(ReadTimelineResp)
		return m.AppendTo(b)
	})
	codec.Register[FanoutEvent](func(b []byte, v any) ([]byte, error) {
		m := v.(FanoutEvent)
		return m.AppendTo(b)
	})
	codec.Register[UploadMediaReq](func(b []byte, v any) ([]byte, error) {
		m := v.(UploadMediaReq)
		return m.AppendTo(b)
	})
	codec.Register[UploadMediaResp](func(b []byte, v any) ([]byte, error) {
		m := v.(UploadMediaResp)
		return m.AppendTo(b)
	})
	codec.Register[GetMediaReq](func(b []byte, v any) ([]byte, error) {
		m := v.(GetMediaReq)
		return m.AppendTo(b)
	})
	codec.Register[GetMediaResp](func(b []byte, v any) ([]byte, error) {
		m := v.(GetMediaResp)
		return m.AppendTo(b)
	})
	codec.Register[TextProcessReq](func(b []byte, v any) ([]byte, error) {
		m := v.(TextProcessReq)
		return m.AppendTo(b)
	})
	codec.Register[TextProcessResp](func(b []byte, v any) ([]byte, error) {
		m := v.(TextProcessResp)
		return m.AppendTo(b)
	})
	codec.Register[InfoReq](func(b []byte, v any) ([]byte, error) {
		m := v.(InfoReq)
		return m.AppendTo(b)
	})
	codec.Register[InfoResp](func(b []byte, v any) ([]byte, error) {
		m := v.(InfoResp)
		return m.AppendTo(b)
	})
	codec.Register[AdsReq](func(b []byte, v any) ([]byte, error) {
		m := v.(AdsReq)
		return m.AppendTo(b)
	})
	codec.Register[AdsResp](func(b []byte, v any) ([]byte, error) {
		m := v.(AdsResp)
		return m.AppendTo(b)
	})
	codec.Register[BlockedListReq](func(b []byte, v any) ([]byte, error) {
		m := v.(BlockedListReq)
		return m.AppendTo(b)
	})
	codec.Register[BlockedListResp](func(b []byte, v any) ([]byte, error) {
		m := v.(BlockedListResp)
		return m.AppendTo(b)
	})
	codec.Register[NeighborsReq](func(b []byte, v any) ([]byte, error) {
		m := v.(NeighborsReq)
		return m.AppendTo(b)
	})
	codec.Register[NeighborsResp](func(b []byte, v any) ([]byte, error) {
		m := v.(NeighborsResp)
		return m.AppendTo(b)
	})
	codec.Register[FollowReq](func(b []byte, v any) ([]byte, error) {
		m := v.(FollowReq)
		return m.AppendTo(b)
	})
	codec.Register[UniqueIDReq](func(b []byte, v any) ([]byte, error) {
		m := v.(UniqueIDReq)
		return m.AppendTo(b)
	})
	codec.Register[UniqueIDResp](func(b []byte, v any) ([]byte, error) {
		m := v.(UniqueIDResp)
		return m.AppendTo(b)
	})
	codec.Register[ShortenReq](func(b []byte, v any) ([]byte, error) {
		m := v.(ShortenReq)
		return m.AppendTo(b)
	})
	codec.Register[ShortenResp](func(b []byte, v any) ([]byte, error) {
		m := v.(ShortenResp)
		return m.AppendTo(b)
	})
	codec.Register[UserTagReq](func(b []byte, v any) ([]byte, error) {
		m := v.(UserTagReq)
		return m.AppendTo(b)
	})
	codec.Register[UserTagResp](func(b []byte, v any) ([]byte, error) {
		m := v.(UserTagResp)
		return m.AppendTo(b)
	})
	codec.Register[ExistsReq](func(b []byte, v any) ([]byte, error) {
		m := v.(ExistsReq)
		return m.AppendTo(b)
	})
	codec.Register[ExistsResp](func(b []byte, v any) ([]byte, error) {
		m := v.(ExistsResp)
		return m.AppendTo(b)
	})
	codec.Register[IndexPostReq](func(b []byte, v any) ([]byte, error) {
		m := v.(IndexPostReq)
		return m.AppendTo(b)
	})
	codec.Register[BumpStatReq](func(b []byte, v any) ([]byte, error) {
		m := v.(BumpStatReq)
		return m.AppendTo(b)
	})
	codec.Register[Post](func(b []byte, v any) ([]byte, error) {
		m := v.(Post)
		return m.AppendTo(b)
	})
	codec.Register[Media](func(b []byte, v any) ([]byte, error) {
		m := v.(Media)
		return m.AppendTo(b)
	})
	codec.Register[UserInfo](func(b []byte, v any) ([]byte, error) {
		m := v.(UserInfo)
		return m.AppendTo(b)
	})
	codec.Register[Ad](func(b []byte, v any) ([]byte, error) {
		m := v.(Ad)
		return m.AppendTo(b)
	})
	codec.RegisterJSON[Post]()
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *ComposePostReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Token))
	b = codec.AppendString(b, string(m.Text))
	b = codec.AppendLen(b, len(m.Images))
	for i1 := range m.Images {
		b = codec.AppendBytes(b, m.Images[i1])
	}
	b = codec.AppendLen(b, len(m.Videos))
	for i2 := range m.Videos {
		b = codec.AppendBytes(b, m.Videos[i2])
	}
	b = codec.AppendString(b, string(m.RepostOf))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *ComposePostReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *ComposePostReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Token = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Text = string(v2)
		b = rest
	}
	{
		n3, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s3 := make([][]uint8, 0, codec.EagerLen(n3))
		for i3 := 0; i3 < n3; i3++ {
			var e3 []uint8
			{
				v4, rest, derr := codec.DecBytes(b)
				if derr != nil {
					return nil, derr
				}
				e3 = v4
				b = rest
			}
			s3 = append(s3, e3)
		}
		m.Images = s3
	}
	{
		n5, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s5 := make([][]uint8, 0, codec.EagerLen(n5))
		for i5 := 0; i5 < n5; i5++ {
			var e5 []uint8
			{
				v6, rest, derr := codec.DecBytes(b)
				if derr != nil {
					return nil, derr
				}
				e5 = v6
				b = rest
			}
			s5 = append(s5, e5)
		}
		m.Videos = s5
	}
	{
		v7, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.RepostOf = string(v7)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the ComposePostReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*ComposePostReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
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
	}
	var n3 int
	if n3, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i4 := 0; i4 < n3; i4++ {
		if _, b, err = codec.DecStringBytes(b); err != nil {
			return nil, err
		}
	}
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *ComposePostResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	var err error
	_ = err
	if b, err = m.Post.AppendTo(b); err != nil {
		return nil, err
	}
	b = codec.AppendBool(b, bool(m.Degraded))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *ComposePostResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *ComposePostResp) decodeFrom(b []byte, s string) ([]byte, error) {
	var err error
	_ = err
	if b, err = m.Post.decodeFrom(b, s); err != nil {
		return nil, err
	}
	{
		v1, rest, derr := codec.DecBool(b)
		if derr != nil {
			return nil, derr
		}
		m.Degraded = bool(v1)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the ComposePostResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*ComposePostResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if b, err = (*Post)(nil).SkipFrom(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecBool(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *StorePostReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	var err error
	_ = err
	if b, err = m.Post.AppendTo(b); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *StorePostReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *StorePostReq) decodeFrom(b []byte, s string) ([]byte, error) {
	var err error
	_ = err
	if b, err = m.Post.decodeFrom(b, s); err != nil {
		return nil, err
	}
	return b, nil
}

// SkipFrom returns b past the StorePostReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*StorePostReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if b, err = (*Post)(nil).SkipFrom(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *ReadPostsReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendLen(b, len(m.IDs))
	for i1 := range m.IDs {
		b = codec.AppendString(b, string(m.IDs[i1]))
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *ReadPostsReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *ReadPostsReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		n1, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s1 := make([]string, 0, codec.EagerLen(n1))
		for i1 := 0; i1 < n1; i1++ {
			var e1 string
			{
				v2, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				e1 = string(v2)
				b = rest
			}
			s1 = append(s1, e1)
		}
		m.IDs = s1
	}
	return b, nil
}

// SkipFrom returns b past the ReadPostsReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*ReadPostsReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	var n1 int
	if n1, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i2 := 0; i2 < n1; i2++ {
		if _, b, err = codec.DecStringBytes(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *ReadPostsResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	var err error
	_ = err
	b = codec.AppendLen(b, len(m.Posts))
	for i1 := range m.Posts {
		if b, err = m.Posts[i1].AppendTo(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *ReadPostsResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *ReadPostsResp) decodeFrom(b []byte, s string) ([]byte, error) {
	var err error
	_ = err
	{
		n1, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s1 := make([]Post, 0, codec.EagerLen(n1))
		for i1 := 0; i1 < n1; i1++ {
			var e1 Post
			if b, err = e1.decodeFrom(b, s); err != nil {
				return nil, err
			}
			s1 = append(s1, e1)
		}
		m.Posts = s1
	}
	return b, nil
}

// SkipFrom returns b past the ReadPostsResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*ReadPostsResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	var n1 int
	if n1, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i2 := 0; i2 < n1; i2++ {
		if b, err = (*Post)(nil).SkipFrom(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *AppendTimelineReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Author))
	b = codec.AppendString(b, string(m.PostID))
	b = codec.AppendInt(b, int64(m.Ts))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *AppendTimelineReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *AppendTimelineReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Author = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.PostID = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Ts = int64(v3)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the AppendTimelineReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*AppendTimelineReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
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
func (m *ReadTimelineReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.User))
	b = codec.AppendInt(b, int64(m.Limit))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *ReadTimelineReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *ReadTimelineReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.User = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Limit = int64(v2)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the ReadTimelineReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*ReadTimelineReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecInt(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *ReadTimelineResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	var err error
	_ = err
	b = codec.AppendLen(b, len(m.Posts))
	for i1 := range m.Posts {
		if b, err = m.Posts[i1].AppendTo(b); err != nil {
			return nil, err
		}
	}
	b = codec.AppendBool(b, bool(m.Degraded))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *ReadTimelineResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *ReadTimelineResp) decodeFrom(b []byte, s string) ([]byte, error) {
	var err error
	_ = err
	{
		n1, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s1 := make([]Post, 0, codec.EagerLen(n1))
		for i1 := 0; i1 < n1; i1++ {
			var e1 Post
			if b, err = e1.decodeFrom(b, s); err != nil {
				return nil, err
			}
			s1 = append(s1, e1)
		}
		m.Posts = s1
	}
	{
		v2, rest, derr := codec.DecBool(b)
		if derr != nil {
			return nil, derr
		}
		m.Degraded = bool(v2)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the ReadTimelineResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*ReadTimelineResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	var n1 int
	if n1, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i2 := 0; i2 < n1; i2++ {
		if b, err = (*Post)(nil).SkipFrom(b); err != nil {
			return nil, err
		}
	}
	if _, b, err = codec.DecBool(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *FanoutEvent) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Author))
	b = codec.AppendString(b, string(m.PostID))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *FanoutEvent) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *FanoutEvent) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Author = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.PostID = string(v2)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the FanoutEvent encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*FanoutEvent) SkipFrom(b []byte) ([]byte, error) {
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
func (m *UploadMediaReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Kind))
	b = codec.AppendBytes(b, m.Data)
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *UploadMediaReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *UploadMediaReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Kind = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecBytes(b)
		if derr != nil {
			return nil, derr
		}
		m.Data = v2
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the UploadMediaReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*UploadMediaReq) SkipFrom(b []byte) ([]byte, error) {
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
func (m *UploadMediaResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	var err error
	_ = err
	if b, err = m.Media.AppendTo(b); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *UploadMediaResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *UploadMediaResp) decodeFrom(b []byte, s string) ([]byte, error) {
	var err error
	_ = err
	if b, err = m.Media.decodeFrom(b, s); err != nil {
		return nil, err
	}
	return b, nil
}

// SkipFrom returns b past the UploadMediaResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*UploadMediaResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if b, err = (*Media)(nil).SkipFrom(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *GetMediaReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.ID))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *GetMediaReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *GetMediaReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.ID = string(v1)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the GetMediaReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*GetMediaReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *GetMediaResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	var err error
	_ = err
	if b, err = m.Media.AppendTo(b); err != nil {
		return nil, err
	}
	b = codec.AppendBool(b, bool(m.Found))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *GetMediaResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *GetMediaResp) decodeFrom(b []byte, s string) ([]byte, error) {
	var err error
	_ = err
	if b, err = m.Media.decodeFrom(b, s); err != nil {
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

// SkipFrom returns b past the GetMediaResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*GetMediaResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if b, err = (*Media)(nil).SkipFrom(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecBool(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *TextProcessReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Text))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *TextProcessReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *TextProcessReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Text = string(v1)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the TextProcessReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*TextProcessReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *TextProcessResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Text))
	b = codec.AppendLen(b, len(m.Mentions))
	for i1 := range m.Mentions {
		b = codec.AppendString(b, string(m.Mentions[i1]))
	}
	b = codec.AppendLen(b, len(m.URLs))
	for i2 := range m.URLs {
		b = codec.AppendString(b, string(m.URLs[i2]))
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *TextProcessResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *TextProcessResp) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Text = string(v1)
		b = rest
	}
	{
		n2, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s2 := make([]string, 0, codec.EagerLen(n2))
		for i2 := 0; i2 < n2; i2++ {
			var e2 string
			{
				v3, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				e2 = string(v3)
				b = rest
			}
			s2 = append(s2, e2)
		}
		m.Mentions = s2
	}
	{
		n4, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s4 := make([]string, 0, codec.EagerLen(n4))
		for i4 := 0; i4 < n4; i4++ {
			var e4 string
			{
				v5, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				e4 = string(v5)
				b = rest
			}
			s4 = append(s4, e4)
		}
		m.URLs = s4
	}
	return b, nil
}

// SkipFrom returns b past the TextProcessResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*TextProcessResp) SkipFrom(b []byte) ([]byte, error) {
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
	}
	var n3 int
	if n3, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i4 := 0; i4 < n3; i4++ {
		if _, b, err = codec.DecStringBytes(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *InfoReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Username))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *InfoReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *InfoReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Username = string(v1)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the InfoReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*InfoReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *InfoResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	var err error
	_ = err
	if b, err = m.Info.AppendTo(b); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *InfoResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *InfoResp) decodeFrom(b []byte, s string) ([]byte, error) {
	var err error
	_ = err
	if b, err = m.Info.decodeFrom(b, s); err != nil {
		return nil, err
	}
	return b, nil
}

// SkipFrom returns b past the InfoResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*InfoResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if b, err = (*UserInfo)(nil).SkipFrom(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *AdsReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Context))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *AdsReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *AdsReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Context = string(v1)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the AdsReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*AdsReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *AdsResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	var err error
	_ = err
	if b, err = m.Ad.AppendTo(b); err != nil {
		return nil, err
	}
	b = codec.AppendBool(b, bool(m.Found))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *AdsResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *AdsResp) decodeFrom(b []byte, s string) ([]byte, error) {
	var err error
	_ = err
	if b, err = m.Ad.decodeFrom(b, s); err != nil {
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

// SkipFrom returns b past the AdsResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*AdsResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if b, err = (*Ad)(nil).SkipFrom(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecBool(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *BlockedListReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.User))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *BlockedListReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *BlockedListReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.User = string(v1)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the BlockedListReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*BlockedListReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *BlockedListResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendLen(b, len(m.Users))
	for i1 := range m.Users {
		b = codec.AppendString(b, string(m.Users[i1]))
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *BlockedListResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *BlockedListResp) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		n1, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s1 := make([]string, 0, codec.EagerLen(n1))
		for i1 := 0; i1 < n1; i1++ {
			var e1 string
			{
				v2, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				e1 = string(v2)
				b = rest
			}
			s1 = append(s1, e1)
		}
		m.Users = s1
	}
	return b, nil
}

// SkipFrom returns b past the BlockedListResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*BlockedListResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	var n1 int
	if n1, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i2 := 0; i2 < n1; i2++ {
		if _, b, err = codec.DecStringBytes(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *NeighborsReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.User))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *NeighborsReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *NeighborsReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.User = string(v1)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the NeighborsReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*NeighborsReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *NeighborsResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendLen(b, len(m.Users))
	for i1 := range m.Users {
		b = codec.AppendString(b, string(m.Users[i1]))
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *NeighborsResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *NeighborsResp) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		n1, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s1 := make([]string, 0, codec.EagerLen(n1))
		for i1 := 0; i1 < n1; i1++ {
			var e1 string
			{
				v2, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				e1 = string(v2)
				b = rest
			}
			s1 = append(s1, e1)
		}
		m.Users = s1
	}
	return b, nil
}

// SkipFrom returns b past the NeighborsResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*NeighborsResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	var n1 int
	if n1, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i2 := 0; i2 < n1; i2++ {
		if _, b, err = codec.DecStringBytes(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *FollowReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Follower))
	b = codec.AppendString(b, string(m.Followee))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *FollowReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *FollowReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Follower = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Followee = string(v2)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the FollowReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*FollowReq) SkipFrom(b []byte) ([]byte, error) {
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
func (m *UniqueIDReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *UniqueIDReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, "")
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *UniqueIDReq) decodeFrom(b []byte, s string) ([]byte, error) {
	return b, nil
}

// SkipFrom returns b past the UniqueIDReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*UniqueIDReq) SkipFrom(b []byte) ([]byte, error) {
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *UniqueIDResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.ID))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *UniqueIDResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *UniqueIDResp) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.ID = string(v1)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the UniqueIDResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*UniqueIDResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *ShortenReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.URL))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *ShortenReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *ShortenReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.URL = string(v1)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the ShortenReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*ShortenReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *ShortenResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Short))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *ShortenResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *ShortenResp) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Short = string(v1)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the ShortenResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*ShortenResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *UserTagReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendLen(b, len(m.Usernames))
	for i1 := range m.Usernames {
		b = codec.AppendString(b, string(m.Usernames[i1]))
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *UserTagReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *UserTagReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		n1, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s1 := make([]string, 0, codec.EagerLen(n1))
		for i1 := 0; i1 < n1; i1++ {
			var e1 string
			{
				v2, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				e1 = string(v2)
				b = rest
			}
			s1 = append(s1, e1)
		}
		m.Usernames = s1
	}
	return b, nil
}

// SkipFrom returns b past the UserTagReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*UserTagReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	var n1 int
	if n1, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i2 := 0; i2 < n1; i2++ {
		if _, b, err = codec.DecStringBytes(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *UserTagResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendLen(b, len(m.Valid))
	for i1 := range m.Valid {
		b = codec.AppendString(b, string(m.Valid[i1]))
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *UserTagResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *UserTagResp) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		n1, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s1 := make([]string, 0, codec.EagerLen(n1))
		for i1 := 0; i1 < n1; i1++ {
			var e1 string
			{
				v2, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				e1 = string(v2)
				b = rest
			}
			s1 = append(s1, e1)
		}
		m.Valid = s1
	}
	return b, nil
}

// SkipFrom returns b past the UserTagResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*UserTagResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	var n1 int
	if n1, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i2 := 0; i2 < n1; i2++ {
		if _, b, err = codec.DecStringBytes(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *ExistsReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendLen(b, len(m.Usernames))
	for i1 := range m.Usernames {
		b = codec.AppendString(b, string(m.Usernames[i1]))
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *ExistsReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *ExistsReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		n1, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s1 := make([]string, 0, codec.EagerLen(n1))
		for i1 := 0; i1 < n1; i1++ {
			var e1 string
			{
				v2, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				e1 = string(v2)
				b = rest
			}
			s1 = append(s1, e1)
		}
		m.Usernames = s1
	}
	return b, nil
}

// SkipFrom returns b past the ExistsReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*ExistsReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
	var n1 int
	if n1, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i2 := 0; i2 < n1; i2++ {
		if _, b, err = codec.DecStringBytes(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *ExistsResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendLen(b, len(m.Existing))
	for i1 := range m.Existing {
		b = codec.AppendString(b, string(m.Existing[i1]))
	}
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *ExistsResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *ExistsResp) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		n1, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s1 := make([]string, 0, codec.EagerLen(n1))
		for i1 := 0; i1 < n1; i1++ {
			var e1 string
			{
				v2, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				e1 = string(v2)
				b = rest
			}
			s1 = append(s1, e1)
		}
		m.Existing = s1
	}
	return b, nil
}

// SkipFrom returns b past the ExistsResp encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*ExistsResp) SkipFrom(b []byte) ([]byte, error) {
	var err error
	var n1 int
	if n1, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i2 := 0; i2 < n1; i2++ {
		if _, b, err = codec.DecStringBytes(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *IndexPostReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.PostID))
	b = codec.AppendString(b, string(m.Text))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *IndexPostReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *IndexPostReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.PostID = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Text = string(v2)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the IndexPostReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*IndexPostReq) SkipFrom(b []byte) ([]byte, error) {
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
func (m *BumpStatReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Username))
	b = codec.AppendString(b, string(m.Stat))
	b = codec.AppendInt(b, int64(m.Delta))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *BumpStatReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *BumpStatReq) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Username = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Stat = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Delta = int64(v3)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the BumpStatReq encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*BumpStatReq) SkipFrom(b []byte) ([]byte, error) {
	var err error
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
func (m *Post) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.ID))
	b = codec.AppendString(b, string(m.Author))
	b = codec.AppendString(b, string(m.Text))
	b = codec.AppendLen(b, len(m.Mentions))
	for i1 := range m.Mentions {
		b = codec.AppendString(b, string(m.Mentions[i1]))
	}
	b = codec.AppendLen(b, len(m.URLs))
	for i2 := range m.URLs {
		b = codec.AppendString(b, string(m.URLs[i2]))
	}
	b = codec.AppendLen(b, len(m.MediaIDs))
	for i3 := range m.MediaIDs {
		b = codec.AppendString(b, string(m.MediaIDs[i3]))
	}
	b = codec.AppendInt(b, int64(m.CreatedAt))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *Post) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *Post) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.ID = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Author = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Text = string(v3)
		b = rest
	}
	{
		n4, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s4 := make([]string, 0, codec.EagerLen(n4))
		for i4 := 0; i4 < n4; i4++ {
			var e4 string
			{
				v5, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				e4 = string(v5)
				b = rest
			}
			s4 = append(s4, e4)
		}
		m.Mentions = s4
	}
	{
		n6, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s6 := make([]string, 0, codec.EagerLen(n6))
		for i6 := 0; i6 < n6; i6++ {
			var e6 string
			{
				v7, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				e6 = string(v7)
				b = rest
			}
			s6 = append(s6, e6)
		}
		m.URLs = s6
	}
	{
		n8, rest, derr := codec.DecLen(b)
		if derr != nil {
			return nil, derr
		}
		b = rest
		s8 := make([]string, 0, codec.EagerLen(n8))
		for i8 := 0; i8 < n8; i8++ {
			var e8 string
			{
				v9, rest, derr := codec.DecStringOf(b, s)
				if derr != nil {
					return nil, derr
				}
				e8 = string(v9)
				b = rest
			}
			s8 = append(s8, e8)
		}
		m.MediaIDs = s8
	}
	{
		v10, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.CreatedAt = int64(v10)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the Post encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*Post) SkipFrom(b []byte) ([]byte, error) {
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
	var n1 int
	if n1, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i2 := 0; i2 < n1; i2++ {
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
	}
	var n5 int
	if n5, b, err = codec.DecLen(b); err != nil {
		return nil, err
	}
	for i6 := 0; i6 < n5; i6++ {
		if _, b, err = codec.DecStringBytes(b); err != nil {
			return nil, err
		}
	}
	if _, b, err = codec.DecInt(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *Media) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.ID))
	b = codec.AppendString(b, string(m.Kind))
	b = codec.AppendInt(b, int64(m.Bytes))
	b = codec.AppendUint(b, uint64(m.Hash))
	b = codec.AppendInt(b, int64(m.Duration))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *Media) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *Media) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.ID = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Kind = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Bytes = int64(v3)
		b = rest
	}
	{
		v4, rest, derr := codec.DecUint(b)
		if derr != nil {
			return nil, derr
		}
		m.Hash = uint64(v4)
		b = rest
	}
	{
		v5, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Duration = int64(v5)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the Media encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*Media) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecInt(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecUint(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecInt(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *UserInfo) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Username))
	b = codec.AppendInt(b, int64(m.Followers))
	b = codec.AppendInt(b, int64(m.Followees))
	b = codec.AppendInt(b, int64(m.Posts))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *UserInfo) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *UserInfo) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Username = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Followers = int64(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Followees = int64(v3)
		b = rest
	}
	{
		v4, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Posts = int64(v4)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the UserInfo encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*UserInfo) SkipFrom(b []byte) ([]byte, error) {
	var err error
	if _, b, err = codec.DecStringBytes(b); err != nil {
		return nil, err
	}
	if _, b, err = codec.DecInt(b); err != nil {
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
func (m *Ad) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.ID))
	b = codec.AppendString(b, string(m.Keyword))
	b = codec.AppendString(b, string(m.Text))
	b = codec.AppendInt(b, int64(m.BidCents))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
// Every string it decodes is a substring of one copy of b.
func (m *Ad) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

// decodeFrom is DecodeFrom within a decode whose copy of its input is s,
// of which b is a suffix.
func (m *Ad) decodeFrom(b []byte, s string) ([]byte, error) {
	{
		v1, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.ID = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Keyword = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecStringOf(b, s)
		if derr != nil {
			return nil, derr
		}
		m.Text = string(v3)
		b = rest
	}
	{
		v4, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.BidCents = int64(v4)
		b = rest
	}
	return b, nil
}

// SkipFrom returns b past the Ad encoding at its front: every check
// DecodeFrom makes, nothing built (codec.Skip fast path).
func (*Ad) SkipFrom(b []byte) ([]byte, error) {
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

// AppendJSON appends m's JSON encoding to b, byte for byte what
// encoding/json writes (codec.JSONMessage fast path).
func (m *Post) AppendJSON(b []byte) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	b = append(b, `{"ID":`...)
	b = codec.AppendJSONString(b, string(m.ID))
	b = append(b, `,"Author":`...)
	b = codec.AppendJSONString(b, string(m.Author))
	b = append(b, `,"Text":`...)
	b = codec.AppendJSONString(b, string(m.Text))
	b = append(b, `,"Mentions":`...)
	if m.Mentions == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i1 := range m.Mentions {
			if i1 > 0 {
				b = append(b, ',')
			}
			b = codec.AppendJSONString(b, string(m.Mentions[i1]))
		}
		b = append(b, ']')
	}
	b = append(b, `,"URLs":`...)
	if m.URLs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i2 := range m.URLs {
			if i2 > 0 {
				b = append(b, ',')
			}
			b = codec.AppendJSONString(b, string(m.URLs[i2]))
		}
		b = append(b, ']')
	}
	b = append(b, `,"MediaIDs":`...)
	if m.MediaIDs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i3 := range m.MediaIDs {
			if i3 > 0 {
				b = append(b, ',')
			}
			b = codec.AppendJSONString(b, string(m.MediaIDs[i3]))
		}
		b = append(b, ']')
	}
	b = append(b, `,"CreatedAt":`...)
	b = strconv.AppendInt(b, int64(m.CreatedAt), 10)
	return append(b, '}')
}

// DecodeJSON consumes one strict-path JSON encoding of m from b,
// declining (ok false) whatever is off it; see codec.JSONMessage.
func (m *Post) DecodeJSON(b string) (rest string, ok bool) {
	if b, ok = codec.JSONKey(b, "{", `"ID"`); !ok {
		return "", false
	}
	{
		v1, rest, ok := codec.JSONString(b)
		if !ok {
			return "", false
		}
		m.ID = string(v1)
		b = rest
	}
	if b, ok = codec.JSONKey(b, ",", `"Author"`); !ok {
		return "", false
	}
	{
		v2, rest, ok := codec.JSONString(b)
		if !ok {
			return "", false
		}
		m.Author = string(v2)
		b = rest
	}
	if b, ok = codec.JSONKey(b, ",", `"Text"`); !ok {
		return "", false
	}
	{
		v3, rest, ok := codec.JSONString(b)
		if !ok {
			return "", false
		}
		m.Text = string(v3)
		b = rest
	}
	if b, ok = codec.JSONKey(b, ",", `"Mentions"`); !ok {
		return "", false
	}
	{
		rest, empty, ok := codec.JSONArray(b)
		if !ok {
			return "", false
		}
		b = rest
		s4 := []string{}
		for more := !empty; more; {
			var e4 string
			{
				v5, rest, ok := codec.JSONString(b)
				if !ok {
					return "", false
				}
				e4 = string(v5)
				b = rest
			}
			s4 = append(s4, e4)
			if b, more, ok = codec.JSONNext(b); !ok {
				return "", false
			}
		}
		m.Mentions = s4
	}
	if b, ok = codec.JSONKey(b, ",", `"URLs"`); !ok {
		return "", false
	}
	{
		rest, empty, ok := codec.JSONArray(b)
		if !ok {
			return "", false
		}
		b = rest
		s6 := []string{}
		for more := !empty; more; {
			var e6 string
			{
				v7, rest, ok := codec.JSONString(b)
				if !ok {
					return "", false
				}
				e6 = string(v7)
				b = rest
			}
			s6 = append(s6, e6)
			if b, more, ok = codec.JSONNext(b); !ok {
				return "", false
			}
		}
		m.URLs = s6
	}
	if b, ok = codec.JSONKey(b, ",", `"MediaIDs"`); !ok {
		return "", false
	}
	{
		rest, empty, ok := codec.JSONArray(b)
		if !ok {
			return "", false
		}
		b = rest
		s8 := []string{}
		for more := !empty; more; {
			var e8 string
			{
				v9, rest, ok := codec.JSONString(b)
				if !ok {
					return "", false
				}
				e8 = string(v9)
				b = rest
			}
			s8 = append(s8, e8)
			if b, more, ok = codec.JSONNext(b); !ok {
				return "", false
			}
		}
		m.MediaIDs = s8
	}
	if b, ok = codec.JSONKey(b, ",", `"CreatedAt"`); !ok {
		return "", false
	}
	{
		v10, rest, ok := codec.JSONInt(b)
		if !ok {
			return "", false
		}
		m.CreatedAt = int64(v10)
		b = rest
	}
	return codec.JSONLit(b, "}")
}

// AppendWireJSON appends, as JSON, the Post whose wire encoding starts w,
// and returns the rest of w (codec.JSONMessage).
func (*Post) AppendWireJSON(b, w []byte) ([]byte, []byte, error) {
	b = append(b, `{"ID":`...)
	{
		v1, rest, err := codec.DecStringBytes(w)
		if err != nil {
			return b, nil, err
		}
		b = codec.AppendJSONBytes(b, v1)
		w = rest
	}
	b = append(b, `,"Author":`...)
	{
		v2, rest, err := codec.DecStringBytes(w)
		if err != nil {
			return b, nil, err
		}
		b = codec.AppendJSONBytes(b, v2)
		w = rest
	}
	b = append(b, `,"Text":`...)
	{
		v3, rest, err := codec.DecStringBytes(w)
		if err != nil {
			return b, nil, err
		}
		b = codec.AppendJSONBytes(b, v3)
		w = rest
	}
	b = append(b, `,"Mentions":`...)
	{
		n4, rest, err := codec.DecLen(w)
		if err != nil {
			return b, nil, err
		}
		w = rest
		b = append(b, '[')
		for i4 := 0; i4 < n4; i4++ {
			if i4 > 0 {
				b = append(b, ',')
			}
			{
				v5, rest, err := codec.DecStringBytes(w)
				if err != nil {
					return b, nil, err
				}
				b = codec.AppendJSONBytes(b, v5)
				w = rest
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"URLs":`...)
	{
		n6, rest, err := codec.DecLen(w)
		if err != nil {
			return b, nil, err
		}
		w = rest
		b = append(b, '[')
		for i6 := 0; i6 < n6; i6++ {
			if i6 > 0 {
				b = append(b, ',')
			}
			{
				v7, rest, err := codec.DecStringBytes(w)
				if err != nil {
					return b, nil, err
				}
				b = codec.AppendJSONBytes(b, v7)
				w = rest
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"MediaIDs":`...)
	{
		n8, rest, err := codec.DecLen(w)
		if err != nil {
			return b, nil, err
		}
		w = rest
		b = append(b, '[')
		for i8 := 0; i8 < n8; i8++ {
			if i8 > 0 {
				b = append(b, ',')
			}
			{
				v9, rest, err := codec.DecStringBytes(w)
				if err != nil {
					return b, nil, err
				}
				b = codec.AppendJSONBytes(b, v9)
				w = rest
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"CreatedAt":`...)
	{
		v10, rest, err := codec.DecInt(w)
		if err != nil {
			return b, nil, err
		}
		b = strconv.AppendInt(b, v10, 10)
		w = rest
	}
	return append(b, '}'), w, nil
}
