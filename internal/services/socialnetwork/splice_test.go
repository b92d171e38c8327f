package socialnetwork

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"dsb/internal/codec"
	"dsb/internal/kv"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// TestReadTimelineSpliceMatchesTyped holds readTimeline, which filters the
// page as bytes, to the typed handler it replaced — decode readPost's page,
// drop blocked authors' posts, encode ReadTimelineResp — over random pages
// and block lists, in both degrade modes, with readPost and blockedUsers
// failing at random: the reply bytes are equal, and so are the failures, the
// Degraded flag and which page a stale read serves.
func TestReadTimelineSpliceMatchesTyped(t *testing.T) {
	net := rpc.NewMem()
	start := func(name string, register func(*rpc.Server)) *rpc.Client {
		srv := rpc.NewServer(name)
		register(srv)
		addr, err := srv.Start(net, name+":1")
		if err != nil {
			t.Fatal(err)
		}
		c := rpc.NewClient(net, name, addr)
		t.Cleanup(func() { c.Close(); srv.Close() })
		return c
	}
	authors := []string{"ann", "bob", "cat", "dan", "eve", "fay"}
	var (
		page                 []Post
		blocked              []string
		postsDown, blockDown bool
	)
	readPost := start("readPost", func(s *rpc.Server) {
		s.Handle("Read", func(ctx *rpc.Ctx, _ []byte) ([]byte, error) {
			if postsDown {
				return nil, rpc.Errorf(rpc.CodeUnavailable, "readPost down")
			}
			return ctx.Reply(&ReadPostsResp{Posts: page})
		})
	})
	blockedUsers := start("blockedUsers", func(s *rpc.Server) {
		svcutil.Handle(s, "List", func(ctx *rpc.Ctx, req *BlockedListReq) (*BlockedListResp, error) {
			if blockDown {
				return nil, rpc.Errorf(rpc.CodeUnavailable, "blockedUsers down")
			}
			return &BlockedListResp{Users: blocked}, nil
		})
	})
	mc := svcutil.KV{C: start("mc", func(s *rpc.Server) { kv.RegisterService(s, kv.New(64<<20)) })}

	for _, degrade := range []bool{false, true} {
		name := fmt.Sprintf("readTimeline-%v", degrade)
		readTimeline := start(name, func(s *rpc.Server) {
			registerReadTimeline(s, svcutil.DB{}, mc, readPost, blockedUsers, degrade, false)
		})
		var stale []Post // the last page the reference assembled in full, per user
		staleSet := false
		rng := rand.New(rand.NewPCG(7, map[bool]uint64{false: 1, true: 2}[degrade]))
		for round := 0; round < 300; round++ {
			user := fmt.Sprintf("reader%v", degrade)
			ids := make([]string, rng.IntN(4)*7) // an empty timeline now and then
			for i := range ids {
				ids[i] = fmt.Sprintf("id%d", i)
			}
			if err := mc.Set(context.Background(), "tl:"+user, mustMarshal(t, ids), 0); err != nil {
				t.Fatal(err)
			}
			page = randomPage(rng, authors)
			blocked = nil
			for _, a := range authors {
				if rng.IntN(4) == 0 {
					blocked = append(blocked, a)
				}
			}
			postsDown, blockDown = rng.IntN(5) == 0, rng.IntN(5) == 0

			// The typed reference.
			var want []byte
			var wantErr bool
			switch filtered, degraded := dropBlocked(page, blocked, blockDown), blockDown; {
			case len(ids) == 0:
				want = mustMarshal(t, ReadTimelineResp{})
			case postsDown && degrade && staleSet:
				want = mustMarshal(t, ReadTimelineResp{Posts: stale, Degraded: true})
			case postsDown, blockDown && !degrade:
				wantErr = true
			default:
				want = mustMarshal(t, ReadTimelineResp{Posts: filtered, Degraded: degraded})
				if degrade && !degraded {
					stale, staleSet = filtered, true
				}
			}

			got, err := readTimeline.CallRaw(context.Background(), "Read", mustMarshal(t, ReadTimelineReq{User: user}))
			if (err != nil) != wantErr {
				t.Fatalf("degrade=%v round %d (posts down %v, blocks down %v): err %v, want error %v", degrade, round, postsDown, blockDown, err, wantErr)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("degrade=%v round %d (posts down %v, blocks down %v, blocked %v):\n spliced %x\n typed   %x", degrade, round, postsDown, blockDown, blocked, got, want)
			}
		}
	}
}

// dropBlocked is the typed filter readTimeline used to run: every post but
// those by a blocked author, unless the block list is unavailable.
func dropBlocked(page []Post, blocked []string, unavailable bool) []Post {
	if unavailable {
		return page
	}
	var out []Post
	for _, p := range page {
		keep := true
		for _, b := range blocked {
			keep = keep && p.Author != b
		}
		if keep {
			out = append(out, p)
		}
	}
	return out
}

// randomPage is up to 25 posts by the given authors, with text that needs
// escaping in JSON and lists of every length, empty included.
func randomPage(rng *rand.Rand, authors []string) []Post {
	texts := []string{"plain", "<b>&\"quoted\"</b>", "tab\tnew\nline  ", "bad \xff byte ☃", ""}
	list := func() []string {
		out := make([]string, rng.IntN(3))
		for i := range out {
			out[i] = fmt.Sprintf("x%d", rng.IntN(100))
		}
		return out
	}
	page := make([]Post, rng.IntN(26))
	for i := range page {
		page[i] = Post{
			ID: fmt.Sprintf("p%d", rng.IntN(1<<20)), Author: authors[rng.IntN(len(authors))],
			Text: texts[rng.IntN(len(texts))], Mentions: list(), URLs: list(), MediaIDs: list(),
			CreatedAt: rng.Int64(),
		}
	}
	return page
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := codec.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
