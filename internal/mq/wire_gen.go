// Code generated by codecgen. DO NOT EDIT.
//
// Wire-compatible fast-path marshalers for this package's hot message
// types: same positional encoding as internal/codec's reflect plans,
// without the per-field reflect.Value dispatch. Regenerate with
// `make codecgen`; `make codecgen-check` fails CI on drift.

package mq

import (
	"dsb/internal/codec"
)

func init() {
	codec.Register[Message]()
	codec.Register[PublishReq]()
	codec.Register[MirrorReq]()
	codec.Register[MirrorResp]()
	codec.Register[PublishResp]()
	codec.Register[SubscribeReq]()
	codec.Register[ConsumeReq]()
	codec.Register[ConsumeResp]()
	codec.Register[PushReq]()
	codec.Register[AckReq]()
	codec.Register[AckResp]()
	codec.Register[StatsReq]()
	codec.Register[StatsResp]()
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *Message) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendUint(b, uint64(m.ID))
	b = codec.AppendString(b, string(m.Key))
	b = codec.AppendBytes(b, m.Body)
	b = codec.AppendInt(b, int64(m.Attempts))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *Message) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	{
		v1, rest, derr := codec.DecUint(b)
		if derr != nil {
			return nil, derr
		}
		m.ID = uint64(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Key = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecBytes(b)
		if derr != nil {
			return nil, derr
		}
		m.Body = v3
		b = rest
	}
	{
		v4, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Attempts = int(v4)
		b = rest
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *PublishReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Topic))
	b = codec.AppendString(b, string(m.Queue))
	b = codec.AppendString(b, string(m.Key))
	b = codec.AppendBytes(b, m.Body)
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *PublishReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	{
		v1, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Topic = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Queue = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Key = string(v3)
		b = rest
	}
	{
		v4, rest, derr := codec.DecBytes(b)
		if derr != nil {
			return nil, derr
		}
		m.Body = v4
		b = rest
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *MirrorReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Topic))
	b = codec.AppendString(b, string(m.Queue))
	b = codec.AppendString(b, string(m.Key))
	b = codec.AppendBytes(b, m.Body)
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *MirrorReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	{
		v1, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Topic = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Queue = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Key = string(v3)
		b = rest
	}
	{
		v4, rest, derr := codec.DecBytes(b)
		if derr != nil {
			return nil, derr
		}
		m.Body = v4
		b = rest
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *MirrorResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendInt(b, int64(m.N))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *MirrorResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	{
		v1, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.N = int(v1)
		b = rest
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *PublishResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendUint(b, uint64(m.ID))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *PublishResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	{
		v1, rest, derr := codec.DecUint(b)
		if derr != nil {
			return nil, derr
		}
		m.ID = uint64(v1)
		b = rest
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *SubscribeReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Topic))
	b = codec.AppendString(b, string(m.Group))
	b = codec.AppendInt(b, int64(m.MaxAttempts))
	b = codec.AppendInt(b, int64(m.MaxDepth))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *SubscribeReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	{
		v1, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Topic = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Group = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.MaxAttempts = int(v3)
		b = rest
	}
	{
		v4, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.MaxDepth = int(v4)
		b = rest
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *ConsumeReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Topic))
	b = codec.AppendString(b, string(m.Group))
	b = codec.AppendString(b, string(m.Queue))
	b = codec.AppendInt(b, int64(m.LeaseNs))
	b = codec.AppendInt(b, int64(m.WaitNs))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *ConsumeReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	{
		v1, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Topic = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Group = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Queue = string(v3)
		b = rest
	}
	{
		v4, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.LeaseNs = int64(v4)
		b = rest
	}
	{
		v5, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.WaitNs = int64(v5)
		b = rest
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *ConsumeResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendUint(b, uint64(m.ID))
	b = codec.AppendString(b, string(m.Key))
	b = codec.AppendBytes(b, m.Body)
	b = codec.AppendInt(b, int64(m.Attempts))
	b = codec.AppendBool(b, bool(m.OK))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *ConsumeResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	{
		v1, rest, derr := codec.DecUint(b)
		if derr != nil {
			return nil, derr
		}
		m.ID = uint64(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Key = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecBytes(b)
		if derr != nil {
			return nil, derr
		}
		m.Body = v3
		b = rest
	}
	{
		v4, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Attempts = int(v4)
		b = rest
	}
	{
		v5, rest, derr := codec.DecBool(b)
		if derr != nil {
			return nil, derr
		}
		m.OK = bool(v5)
		b = rest
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *PushReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Topic))
	b = codec.AppendString(b, string(m.Group))
	b = codec.AppendString(b, string(m.Queue))
	b = codec.AppendInt(b, int64(m.LeaseNs))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *PushReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	{
		v1, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Topic = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Group = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Queue = string(v3)
		b = rest
	}
	{
		v4, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.LeaseNs = int64(v4)
		b = rest
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *AckReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Topic))
	b = codec.AppendString(b, string(m.Group))
	b = codec.AppendString(b, string(m.Queue))
	b = codec.AppendUint(b, uint64(m.ID))
	b = codec.AppendString(b, string(m.Key))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *AckReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	{
		v1, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Topic = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Group = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Queue = string(v3)
		b = rest
	}
	{
		v4, rest, derr := codec.DecUint(b)
		if derr != nil {
			return nil, derr
		}
		m.ID = uint64(v4)
		b = rest
	}
	{
		v5, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Key = string(v5)
		b = rest
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *AckResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendBool(b, bool(m.OK))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *AckResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	{
		v1, rest, derr := codec.DecBool(b)
		if derr != nil {
			return nil, derr
		}
		m.OK = bool(v1)
		b = rest
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *StatsReq) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendString(b, string(m.Topic))
	b = codec.AppendString(b, string(m.Group))
	b = codec.AppendString(b, string(m.Queue))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *StatsReq) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	{
		v1, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Topic = string(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Group = string(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecString(b)
		if derr != nil {
			return nil, derr
		}
		m.Queue = string(v3)
		b = rest
	}
	return b, nil
}

// AppendTo appends m's wire encoding to b (codec.Message fast path).
func (m *StatsResp) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	b = codec.AppendInt(b, int64(m.Queued))
	b = codec.AppendInt(b, int64(m.InFlight))
	b = codec.AppendInt(b, int64(m.Published))
	b = codec.AppendInt(b, int64(m.Acked))
	b = codec.AppendInt(b, int64(m.Redelivered))
	b = codec.AppendInt(b, int64(m.DeadLettered))
	b = codec.AppendInt(b, int64(m.OldestAgeNs))
	return b, nil
}

// DecodeFrom consumes m's wire encoding from b, returning the rest.
func (m *StatsResp) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, codec.ErrNilMessage
	}
	{
		v1, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Queued = int(v1)
		b = rest
	}
	{
		v2, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.InFlight = int(v2)
		b = rest
	}
	{
		v3, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Published = int64(v3)
		b = rest
	}
	{
		v4, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Acked = int64(v4)
		b = rest
	}
	{
		v5, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.Redelivered = int64(v5)
		b = rest
	}
	{
		v6, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.DeadLettered = int64(v6)
		b = rest
	}
	{
		v7, rest, derr := codec.DecInt(b)
		if derr != nil {
			return nil, derr
		}
		m.OldestAgeNs = int64(v7)
		b = rest
	}
	return b, nil
}
