package codec

// Hand-written fast-path marshalers for the fuzz types, in the exact style
// cmd/codecgen emits. Registering them from a test init means the package's
// own fuzz and round-trip targets exercise the fast path dispatch (Marshal
// and Unmarshal route through AppendTo/DecodeFrom) while MarshalReflect and
// UnmarshalReflect keep the plan path reachable for differential checks in
// fuzz_test.go.

func init() {
	Register[fuzzInner](func(b []byte, v any) ([]byte, error) {
		m := v.(fuzzInner)
		return m.AppendTo(b)
	})
	Register[fuzzMsg](func(b []byte, v any) ([]byte, error) {
		m := v.(fuzzMsg)
		return m.AppendTo(b)
	})
}

func (m *fuzzInner) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, ErrNilMessage
	}
	b = AppendString(b, m.Name)
	b = AppendFloat64(b, m.Score)
	b = AppendLen(b, len(m.Tags))
	for i := range m.Tags {
		b = AppendString(b, m.Tags[i])
	}
	return b, nil
}

func (m *fuzzInner) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

func (m *fuzzInner) decodeFrom(b []byte, s string) ([]byte, error) {
	var err error
	if m.Name, b, err = DecStringOf(b, s); err != nil {
		return nil, err
	}
	if m.Score, b, err = DecFloat64(b); err != nil {
		return nil, err
	}
	n, b, err := DecLen(b)
	if err != nil {
		return nil, err
	}
	tags := make([]string, 0, EagerLen(n))
	for i := 0; i < n; i++ {
		var tag string
		if tag, b, err = DecStringOf(b, s); err != nil {
			return nil, err
		}
		tags = append(tags, tag)
	}
	m.Tags = tags
	return b, nil
}

func (m *fuzzMsg) AppendTo(b []byte) ([]byte, error) {
	if m == nil {
		return nil, ErrNilMessage
	}
	var err error
	b = AppendBool(b, m.Flag)
	b = AppendInt(b, int64(m.Small))
	b = AppendInt(b, m.Wide)
	b = AppendUint(b, uint64(m.Count))
	b = AppendFloat32(b, m.Ratio)
	b = AppendString(b, m.Label)
	b = AppendBytes(b, m.Raw)
	for i := 0; i < 3; i++ {
		b = AppendInt(b, int64(m.Triple[i]))
	}
	b = AppendLen(b, len(m.Items))
	for i := range m.Items {
		if b, err = m.Items[i].AppendTo(b); err != nil {
			return nil, err
		}
	}
	b = AppendLen(b, len(m.ByName))
	if len(m.ByName) > 0 {
		keys := make([]string, 0, len(m.ByName))
		for k := range m.ByName {
			keys = append(keys, k)
		}
		insertionSortStrings(keys)
		for _, k := range keys {
			b = AppendString(b, k)
			v := m.ByName[k]
			if b, err = v.AppendTo(b); err != nil {
				return nil, err
			}
		}
	}
	b = AppendLen(b, len(m.ByID))
	if len(m.ByID) > 0 {
		ids := make([]int64, 0, len(m.ByID))
		for k := range m.ByID {
			ids = append(ids, k)
		}
		insertionSortInt64s(ids)
		for _, k := range ids {
			b = AppendInt(b, k)
			b = AppendString(b, m.ByID[k])
		}
	}
	if m.Opt == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		if b, err = m.Opt.AppendTo(b); err != nil {
			return nil, err
		}
	}
	if m.Link == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		if b, err = m.Link.AppendTo(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (m *fuzzMsg) DecodeFrom(b []byte) ([]byte, error) {
	if m == nil {
		return nil, ErrNilMessage
	}
	return m.decodeFrom(b, string(b))
}

func (m *fuzzMsg) decodeFrom(b []byte, s string) ([]byte, error) {
	var err error
	if m.Flag, b, err = DecBool(b); err != nil {
		return nil, err
	}
	if m.Small, b, err = DecInt8(b); err != nil {
		return nil, err
	}
	if m.Wide, b, err = DecInt(b); err != nil {
		return nil, err
	}
	if m.Count, b, err = DecUint32(b); err != nil {
		return nil, err
	}
	if m.Ratio, b, err = DecFloat32(b); err != nil {
		return nil, err
	}
	if m.Label, b, err = DecStringOf(b, s); err != nil {
		return nil, err
	}
	if m.Raw, b, err = DecBytes(b); err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		if m.Triple[i], b, err = DecInt32(b); err != nil {
			return nil, err
		}
	}
	n, b, err := DecLen(b)
	if err != nil {
		return nil, err
	}
	items := make([]fuzzInner, 0, EagerLen(n))
	for i := 0; i < n; i++ {
		var e fuzzInner
		if b, err = e.decodeFrom(b, s); err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	m.Items = items
	if n, b, err = DecLen(b); err != nil {
		return nil, err
	}
	byName := make(map[string]fuzzInner, EagerLen(n))
	for i := 0; i < n; i++ {
		var k string
		if k, b, err = DecStringOf(b, s); err != nil {
			return nil, err
		}
		var v fuzzInner
		if b, err = v.decodeFrom(b, s); err != nil {
			return nil, err
		}
		byName[k] = v
	}
	m.ByName = byName
	if n, b, err = DecLen(b); err != nil {
		return nil, err
	}
	byID := make(map[int64]string, EagerLen(n))
	for i := 0; i < n; i++ {
		var k int64
		if k, b, err = DecInt(b); err != nil {
			return nil, err
		}
		var v string
		if v, b, err = DecStringOf(b, s); err != nil {
			return nil, err
		}
		byID[k] = v
	}
	m.ByID = byID
	if len(b) < 1 {
		return nil, ErrShortBuffer
	}
	optSet := b[0] != 0
	b = b[1:]
	if !optSet {
		m.Opt = nil
	} else {
		p := new(fuzzInner)
		if b, err = p.decodeFrom(b, s); err != nil {
			return nil, err
		}
		m.Opt = p
	}
	if len(b) < 1 {
		return nil, ErrShortBuffer
	}
	linkSet := b[0] != 0
	b = b[1:]
	if !linkSet {
		m.Link = nil
	} else {
		p := new(fuzzMsg)
		if b, err = p.decodeFrom(b, s); err != nil {
			return nil, err
		}
		m.Link = p
	}
	return b, nil
}

func insertionSortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func insertionSortInt64s(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
