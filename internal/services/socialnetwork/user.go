package socialnetwork

import (
	"context"
	"math"
	"strings"
	"time"

	"dsb/internal/codec"
	"dsb/internal/rpc"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

// The login half of the tier is the shared accounts service.
type (
	RegisterReq = accounts.RegisterReq
	LoginReq    = accounts.LoginReq
	LoginResp   = accounts.LoginResp
)

// ExistsReq asks which usernames exist.
type ExistsReq struct{ Usernames []string }

// ExistsResp returns the existing subset, in request order.
type ExistsResp struct{ Existing []string }

// InfoReq fetches a profile.
type InfoReq struct{ Username string }

// InfoResp returns the profile.
type InfoResp struct{ Info UserInfo }

// BumpStatReq adjusts a profile counter (posts/followers/followees).
type BumpStatReq struct {
	Username string
	Stat     string
	Delta    int64
}

// profileCacheTTL bounds cached profiles; short, because follower counts
// move constantly and BumpStat invalidation is best-effort.
const profileCacheTTL = 30 * time.Second

// registerUser installs the login/userInfo service: the shared accounts
// handlers over the users collection, existence checks for mention
// verification, and profile counters. Profile reads ("u:" keys) run
// through the shared svcutil.ReadPath — a celebrity profile is the
// textbook hot key, and before coalescing every concurrent Info miss
// became its own users-store read — with BumpStat invalidating the entry
// after every counter change.
func registerUser(srv *rpc.Server, db svcutil.DB, mc svcutil.KV, noCoalesce bool) {
	profilePath := &svcutil.ReadPath[UserInfo]{
		MC:         mc,
		TTL:        profileCacheTTL,
		NoCoalesce: noCoalesce,
		Decode: func(b []byte) (UserInfo, error) {
			var u UserInfo
			err := codec.Unmarshal(b, &u)
			return u, err
		},
		Fetch: func(ctx context.Context, key string) (UserInfo, []byte, bool, error) {
			username := strings.TrimPrefix(key, "u:")
			doc, found, err := db.Get(ctx, "users", username)
			if err != nil || !found {
				return UserInfo{}, nil, false, err
			}
			info := UserInfo{
				Username:  username,
				Followers: doc.Nums["followers"],
				Followees: doc.Nums["followees"],
				Posts:     doc.Nums["posts"],
			}
			enc, err := codec.Marshal(info)
			return info, enc, true, err
		},
	}
	accounts.Register(srv, db, mc, "users")

	svcutil.Handle(srv, "Exists", func(ctx *rpc.Ctx, req *ExistsReq) (*ExistsResp, error) {
		var out []string
		for _, u := range req.Usernames {
			if _, found, err := db.Get(ctx, "users", u); err != nil {
				return nil, err
			} else if found {
				out = append(out, u)
			}
		}
		return &ExistsResp{Existing: out}, nil
	})

	svcutil.Handle(srv, "Info", func(ctx *rpc.Ctx, req *InfoReq) (*InfoResp, error) {
		info, found, err := profilePath.Get(ctx, "u:"+req.Username)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, rpc.NotFoundf("user: no user %q", req.Username)
		}
		return &InfoResp{Info: info}, nil
	})

	svcutil.Handle(srv, "BumpStat", func(ctx *rpc.Ctx, req *BumpStatReq) (*struct{}, error) {
		switch req.Stat {
		case "posts", "followers", "followees":
		default:
			return nil, rpc.Errorf(rpc.CodeBadRequest, "user: unknown stat %q", req.Stat)
		}
		// One store-side AddNum: two follows of one user, or two composes by
		// one author, must not both read the same count.
		_, found, _, err := db.AddNum(ctx, "users", req.Username, req.Stat, req.Delta, math.MinInt64, false)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, rpc.NotFoundf("user: no user %q", req.Username)
		}
		// Drop the cached profile so the next Info reflects the new count.
		mc.Delete(ctx, "u:"+req.Username) //nolint:errcheck // best-effort; TTL bounds staleness
		return nil, nil
	})
}
