package codec_test

// The generated skippers against the reflect oracle. A tier that forwards a
// cached encoding (readTimeline's "tl:" and "tlp:" entries, postStorage's
// "post:" hits) splices the bytes it validated into its reply unchanged, so
// a skipper that accepts what the decoder rejects, or stops at a different
// byte, serves a corrupt reply. Both checks hold the generated skip to the
// reflect plan's on the same input: the same verdict and the same remainder.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"dsb/internal/codec"
	"dsb/internal/services/socialnetwork"
)

// sameSkip fails unless skip and the reflect plan of typ step over data
// alike: both fail, or both succeed leaving the same bytes.
func sameSkip(t *testing.T, typ reflect.Type, skip func([]byte) ([]byte, error), data []byte) {
	t.Helper()
	got, gerr := skip(data)
	want, werr := codec.SkipType(typ, data)
	if (gerr == nil) != (werr == nil) || !bytes.Equal(got, want) || len(got) != len(want) {
		t.Fatalf("%s on %x: generated skip = %x, %v; reflect plan = %x, %v", typ, data, got, gerr, want, werr)
	}
}

// skipSame is sameSkip for a T known at compile time, through the Skip and
// Valid a caller uses.
func skipSame[T any](t *testing.T, data []byte) {
	t.Helper()
	typ := reflect.TypeFor[T]()
	sameSkip(t, typ, codec.Skip[T], data)
	if verr, werr := codec.Valid[T](data), codec.ValidType(typ, data); (verr == nil) != (werr == nil) {
		t.Fatalf("%s on %x: Valid = %v, the reflect plan's = %v", typ, data, verr, werr)
	}
}

// TestRegisteredSkippersMatchReflect sweeps every registered type and the
// slice of it: each has a generated skipper, and it agrees with the reflect
// plan's on honest encodings and on every corruption of them.
func TestRegisteredSkippersMatchReflect(t *testing.T) {
	for _, elem := range codec.RegisteredTypes() {
		if elem.PkgPath() == reflect.TypeFor[codec.Message]().PkgPath() {
			continue // this package's tests' hand-written messages
		}
		types := []reflect.Type{elem, reflect.SliceOf(elem)}
		if elem.Size() == 0 {
			types = types[:1] // a hostile count of empty encodings takes millions of steps
		}
		for _, typ := range types {
			skip := codec.GeneratedSkip(typ)
			if skip == nil {
				t.Fatalf("%s has no generated skipper", typ)
			}
			for seed := int64(0); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed * 104729))
				pv := reflect.New(typ)
				if seed > 0 {
					fill(pv.Elem(), rng, 0)
				}
				enc, err := codec.MarshalReflect(pv.Elem().Interface())
				if err != nil {
					t.Fatal(err)
				}
				for _, data := range corruptions(enc, rng) {
					sameSkip(t, typ, skip, data)
				}
			}
		}
	}
}

// FuzzGeneratedSkip drives the timeline path's types with arbitrary bytes.
// `make fuzz-frame` runs it; plain `go test` replays the seeds: honest
// encodings, each truncated, with a trailing byte, and with a hostile length
// header spliced in.
func FuzzGeneratedSkip(f *testing.F) {
	post := socialnetwork.Post{
		ID: "p1", Author: "alice", Text: "hello @bob", Mentions: []string{"bob"},
		URLs: []string{"https://dsb.example/a"}, MediaIDs: []string{}, CreatedAt: 1700000000,
	}
	rng := rand.New(rand.NewSource(1))
	for _, v := range []any{post, []socialnetwork.Post{post, {}}, []string{"p1", "", "p3"}, socialnetwork.BlockedListResp{Users: []string{"mallory"}}} {
		enc, err := codec.MarshalReflect(v)
		if err != nil {
			f.Fatal(err)
		}
		for _, data := range corruptions(enc, rng) {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		skipSame[socialnetwork.Post](t, data)
		skipSame[[]socialnetwork.Post](t, data)
		skipSame[[]string](t, data)
		skipSame[socialnetwork.BlockedListResp](t, data)
	})
}
