package docstore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dsb/internal/codec"
	"dsb/internal/rpc"
)

// backend is the store's operation set, as the model test drives it.
type backend interface {
	Put(d Doc) error
	Get(id string) (Doc, bool)
	Prepend(id, value string, max int, unique bool) (int, error)
	AddNum(id, field string, delta, floor int64, create bool) (int64, bool, bool)
	Find(field, value string, limit int) []Doc
}

// model is the reference: a map of Docs, linear scans, and the typed codec
// for list bodies. It is what the store must be indistinguishable from.
type model map[string]Doc

func (m model) Put(d Doc) error {
	if d.ID == "" {
		return fmt.Errorf("empty ID")
	}
	m[d.ID] = decode(encode(&d)) // a deep copy
	return nil
}

func (m model) Get(id string) (Doc, bool) { d, ok := m[id]; return d, ok }

func (m model) Prepend(id, value string, max int, unique bool) (int, error) {
	if id == "" {
		return 0, fmt.Errorf("empty ID")
	}
	d, ok := m[id]
	if !ok {
		d = Doc{ID: id}
	}
	var list []string
	if len(d.Body) > 0 {
		if err := codec.Unmarshal(d.Body, &list); err != nil {
			return 0, err
		}
	}
	for _, v := range list {
		if unique && v == value {
			return len(list), nil
		}
	}
	list = append([]string{value}, list...)
	if max > 0 && len(list) > max {
		list = list[:max]
	}
	d.Body, _ = codec.Marshal(list)
	return len(list), m.Put(d)
}

func (m model) AddNum(id, field string, delta, floor int64, create bool) (int64, bool, bool) {
	d, ok := m[id]
	if !ok && (!create || id == "") {
		return 0, false, false
	}
	if !ok {
		d = decode(encode(&Doc{ID: id}))
	}
	if d.Nums[field]+delta < floor {
		return d.Nums[field], ok, false
	}
	d.Nums[field] += delta
	m[id] = d
	return d.Nums[field], ok, true
}

func (m model) scan(keep func(Doc) bool, less func(a, b Doc) bool, limit int) []Doc {
	out := []Doc{}
	for _, d := range m {
		if keep(d) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func (m model) Find(field, value string, limit int) []Doc {
	return m.scan(func(d Doc) bool { v, ok := d.Fields[field]; return ok && v == value },
		func(a, b Doc) bool { return a.ID < b.ID }, limit)
}

// local drives a Collection in process.
type local struct{ *Collection }

func (l local) Prepend(id, value string, max int, unique bool) (int, error) {
	n, _, err := l.listPrepend(id, value, max, unique)
	return n, err
}

// remote drives a served store over rpc.Mem.
type remote struct{ cl *rpc.Client }

var bg = context.Background()

func (r remote) Put(d Doc) error { return r.cl.Call(bg, "Put", PutReq{Collection: "c", Doc: d}, nil) }

func (r remote) Get(id string) (Doc, bool) {
	var resp GetResp
	if err := r.cl.Call(bg, "Get", GetReq{Collection: "c", ID: id}, &resp); err != nil {
		panic(err)
	}
	return resp.Doc, resp.Found
}

func (r remote) Prepend(id, value string, max int, unique bool) (int, error) {
	var resp ListPrependResp
	err := r.cl.Call(bg, "ListPrepend", ListPrependReq{Collection: "c", ID: id, Value: value, Cap: int64(max), Unique: unique}, &resp)
	return int(resp.Len), err
}

func (r remote) AddNum(id, field string, delta, floor int64, create bool) (int64, bool, bool) {
	var resp AddNumResp
	if err := r.cl.Call(bg, "AddNum", AddNumReq{Collection: "c", ID: id, Field: field, Delta: delta, Floor: floor, Create: create}, &resp); err != nil {
		panic(err)
	}
	return resp.Value, resp.Found, resp.OK
}

func (r remote) Find(field, value string, limit int) []Doc {
	var resp FindResp
	if err := r.cl.Call(bg, "Find", FindReq{Collection: "c", Field: field, Value: value, Limit: int64(limit)}, &resp); err != nil {
		panic(err)
	}
	return resp.Docs
}

// norm makes a nil and an empty map or body compare equal: the model holds
// what was handed in, the store returns what a decode builds.
func norm(v any) any {
	fix := func(d Doc) Doc {
		if len(d.Fields) == 0 {
			d.Fields = nil
		}
		if len(d.Nums) == 0 {
			d.Nums = nil
		}
		if len(d.Body) == 0 {
			d.Body = nil
		}
		return d
	}
	switch v := v.(type) {
	case Doc:
		return fix(v)
	case []Doc:
		out := make([]Doc, len(v))
		for i, d := range v {
			out[i] = fix(d)
		}
		return out
	}
	return v
}

// randomOp picks one operation and returns it as a function of the backend,
// with a description; IDs, keys and values come from alphabets small enough
// that replaces, index moves, ties and cap truncation all happen.
func randomOp(rng *rand.Rand) (string, func(b backend) []any) {
	pick := func(s ...string) string { return s[rng.Intn(len(s))] }
	id := pick("a", "b", "c", "d", "e", "f", "g", "h", "tl:1", "tl:2", "")
	field, value := pick("f", "g", "nosuch"), pick("v0", "v1", "v2", "")
	num, n := pick("n", "m", "z"), int64(rng.Intn(9)-4)
	limit := rng.Intn(4)
	doc := func() Doc {
		d := Doc{ID: id}
		for _, k := range []string{"f", "g"} {
			if rng.Intn(3) > 0 {
				if d.Fields == nil {
					d.Fields = map[string]string{}
				}
				d.Fields[k] = pick("v0", "v1", "v2", "")
			}
		}
		for _, k := range []string{"n", "m"} {
			if rng.Intn(3) > 0 {
				if d.Nums == nil {
					d.Nums = map[string]int64{}
				}
				d.Nums[k] = int64(rng.Intn(9) - 4)
			}
		}
		switch rng.Intn(4) {
		case 0:
			d.Body, _ = codec.Marshal([]string{"x", pick("p0", "p1")})
		case 1:
			d.Body = []byte{0xff, 0xff, byte(rng.Intn(256))} // not a list
		case 2:
			d.Body = []byte{}
		}
		return d
	}
	switch rng.Intn(8) {
	case 0, 1:
		d := doc()
		return fmt.Sprintf("Put(%+v)", d), func(b backend) []any { return []any{b.Put(d) != nil} }
	case 2, 3:
		return fmt.Sprintf("Get(%q)", id), func(b backend) []any { d, ok := b.Get(id); return []any{d, ok} }
	case 4, 5:
		v, max, unique := pick("p0", "p1", "p2", "p3", ""), rng.Intn(5), rng.Intn(2) == 0
		return fmt.Sprintf("Prepend(%q, %q, %d, %v)", id, v, max, unique), func(b backend) []any {
			n, err := b.Prepend(id, v, max, unique)
			if err != nil {
				n = 0
			}
			return []any{n, err != nil}
		}
	case 6:
		floor, create := int64(rng.Intn(5)-6), rng.Intn(2) == 0
		return fmt.Sprintf("AddNum(%q, %q, %d, %d, %v)", id, num, n, floor, create), func(b backend) []any {
			v, found, ok := b.AddNum(id, num, n, floor, create)
			return []any{v, found, ok}
		}
	default:
		return fmt.Sprintf("Find(%q, %q, %d)", field, value, limit), func(b backend) []any { return []any{b.Find(field, value, limit)} }
	}
}

// TestModelDifferential runs seeded random operation sequences against the
// reference model and the real store — in process and over the RPC service —
// comparing every result and the final contents. A field's index is built
// on its first Find and kept by every mutation after: the first two seeds
// Find from the start, so mostly the kept index answers, and the last two
// draw no Find for half their run, so each field's index is first built
// from thousands of stored, replaced, counted and prepended documents.
func TestModelDifferential(t *testing.T) {
	const ops = 20000
	run := func(t *testing.T, seed int64, firstFind int, b backend, col *Collection) {
		rng := rand.New(rand.NewSource(seed))
		ref := model{}
		for i := 0; i < ops; i++ {
			desc, op := randomOp(rng)
			for i < firstFind && strings.HasPrefix(desc, "Find(") {
				desc, op = randomOp(rng)
			}
			want, got := op(ref), op(b)
			for j := range want {
				if !reflect.DeepEqual(norm(want[j]), norm(got[j])) {
					t.Fatalf("seed %d op %d %s: result %d is %+v, the model says %+v", seed, i, desc, j, got[j], want[j])
				}
			}
		}
		checkAll(t, "store", ref, col)
	}
	for _, c := range []struct {
		seed      int64
		firstFind int
	}{{1, 0}, {2, 0}, {3, ops / 2}, {4, ops / 2}} {
		seed := c.seed
		t.Run(fmt.Sprintf("in-process/seed%d", seed), func(t *testing.T) {
			col := NewStore().Collection("c")
			run(t, seed, c.firstFind, local{col}, col)
		})
		t.Run(fmt.Sprintf("rpc/seed%d", seed), func(t *testing.T) {
			store := NewStore()
			n := rpc.NewMem()
			srv := rpc.NewServer("db")
			RegisterService(srv, store)
			addr, err := srv.Start(n, "db:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cl := rpc.NewClient(n, "db", addr)
			defer cl.Close()
			col := store.Collection("c")
			run(t, seed, c.firstFind, remote{cl}, col)
		})
	}
}

// checkAll holds a collection's whole contents, and what its index answers
// for every field and value the model holds, to the model.
func checkAll(t *testing.T, what string, ref model, col *Collection) {
	t.Helper()
	want := ref.scan(func(Doc) bool { return true }, func(a, b Doc) bool { return a.ID < b.ID }, 0)
	if got := col.All(); !reflect.DeepEqual(norm(want), norm(got)) {
		t.Fatalf("%s holds %+v, the model %+v", what, got, want)
	}
	for _, d := range want {
		for k, v := range d.Fields {
			if got, want := col.Find(k, v, 0), ref.Find(k, v, 0); !reflect.DeepEqual(norm(want), norm(got)) {
				t.Fatalf("%s Find(%q, %q) = %+v, the model %+v", what, k, v, got, want)
			}
		}
	}
}
