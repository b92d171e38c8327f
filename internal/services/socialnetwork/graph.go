package socialnetwork

import (
	"fmt"

	"dsb/internal/codec"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// FollowReq creates or removes a follow edge.
type FollowReq struct{ Follower, Followee string }

// NeighborsReq asks for a user's followers or followees.
type NeighborsReq struct{ User string }

// NeighborsResp returns usernames.
type NeighborsResp struct{ Users []string }

// registerSocialGraph installs the writeGraph service owning the follow
// graph: two adjacency lists per user (followers and followees) persisted
// in its document store, with profile counters maintained through the user
// service.
func registerSocialGraph(srv *rpc.Server, db svcutil.DB, user svcutil.Caller) {
	svcutil.Handle(srv, "Follow", func(ctx *rpc.Ctx, req *FollowReq) (*struct{}, error) {
		if req.Follower == "" || req.Followee == "" || req.Follower == req.Followee {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "graph: invalid follow %q -> %q", req.Follower, req.Followee)
		}
		added, err := addEdge(ctx, db, "followees:"+req.Follower, req.Followee)
		if err != nil {
			return nil, err
		}
		if !added {
			return nil, nil // already following: idempotent
		}
		if _, err := addEdge(ctx, db, "followers:"+req.Followee, req.Follower); err != nil {
			return nil, err
		}
		if err := user.Call(ctx, "BumpStat", BumpStatReq{Username: req.Follower, Stat: "followees", Delta: 1}, nil); err != nil {
			return nil, err
		}
		if err := user.Call(ctx, "BumpStat", BumpStatReq{Username: req.Followee, Stat: "followers", Delta: 1}, nil); err != nil {
			return nil, err
		}
		return nil, nil
	})

	svcutil.Handle(srv, "Unfollow", func(ctx *rpc.Ctx, req *FollowReq) (*struct{}, error) {
		removed, err := removeEdge(ctx, db, "followees:"+req.Follower, req.Followee)
		if err != nil {
			return nil, err
		}
		if !removed {
			return nil, nil
		}
		if _, err := removeEdge(ctx, db, "followers:"+req.Followee, req.Follower); err != nil {
			return nil, err
		}
		if err := user.Call(ctx, "BumpStat", BumpStatReq{Username: req.Follower, Stat: "followees", Delta: -1}, nil); err != nil {
			return nil, err
		}
		if err := user.Call(ctx, "BumpStat", BumpStatReq{Username: req.Followee, Stat: "followers", Delta: -1}, nil); err != nil {
			return nil, err
		}
		return nil, nil
	})

	svcutil.Handle(srv, "Followers", func(ctx *rpc.Ctx, req *NeighborsReq) (*NeighborsResp, error) {
		users, err := readEdges(ctx, db, "followers:"+req.User)
		if err != nil {
			return nil, err
		}
		return &NeighborsResp{Users: users}, nil
	})

	svcutil.Handle(srv, "Followees", func(ctx *rpc.Ctx, req *NeighborsReq) (*NeighborsResp, error) {
		users, err := readEdges(ctx, db, "followees:"+req.User)
		if err != nil {
			return nil, err
		}
		return &NeighborsResp{Users: users}, nil
	})
}

func readEdges(ctx *rpc.Ctx, db svcutil.DB, key string) ([]string, error) {
	doc, found, err := db.Get(ctx, "graph", key)
	if err != nil || !found {
		return nil, err
	}
	var users []string
	if err := codec.Unmarshal(doc.Body, &users); err != nil {
		return nil, fmt.Errorf("graph: corrupt adjacency %s: %w", key, err)
	}
	return users, nil
}

// addEdge puts member in the set at key, newest first, and reports whether
// it was not there yet: one store-side unique prepend, so concurrent adds to
// one set all land.
func addEdge(ctx *rpc.Ctx, db svcutil.DB, key, member string) (bool, error) {
	return db.ListPrependUnique(ctx, "graph", key, member, 0)
}

// removeEdge takes member out of the set at key and reports whether it was
// there: one store-side remove, so concurrent removes and adds on one set
// all land, and of two racing removes of one member only one reports it.
func removeEdge(ctx *rpc.Ctx, db svcutil.DB, key, member string) (bool, error) {
	return db.ListRemove(ctx, "graph", key, member)
}

// BlockReq blocks or unblocks an author for a user.
type BlockReq struct{ User, Target string }

// BlockedListReq asks for a user's block list.
type BlockedListReq struct{ User string }

// BlockedListResp returns blocked usernames.
type BlockedListResp struct{ Users []string }

// registerBlockedUsers installs the blockedUsers service; readTimeline
// filters posts whose authors the reader has blocked.
func registerBlockedUsers(srv *rpc.Server, db svcutil.DB) {
	svcutil.Handle(srv, "Block", func(ctx *rpc.Ctx, req *BlockReq) (*struct{}, error) {
		if req.User == "" || req.Target == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "blocked: user and target required")
		}
		_, err := addEdge(ctx, db, "blocked:"+req.User, req.Target)
		return nil, err
	})
	svcutil.Handle(srv, "Unblock", func(ctx *rpc.Ctx, req *BlockReq) (*struct{}, error) {
		_, err := removeEdge(ctx, db, "blocked:"+req.User, req.Target)
		return nil, err
	})
	svcutil.Handle(srv, "List", func(ctx *rpc.Ctx, req *BlockedListReq) (*BlockedListResp, error) {
		users, err := readEdges(ctx, db, "blocked:"+req.User)
		if err != nil {
			return nil, err
		}
		return &BlockedListResp{Users: users}, nil
	})
}
