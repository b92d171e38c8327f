package socialnetwork

import (
	"sort"

	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// AdsReq asks for an ad relevant to the given context terms.
type AdsReq struct{ Context string }

// AdsResp returns the winning ad, if any matched.
type AdsResp struct {
	Ad    Ad
	Found bool
}

// defaultAdCatalog is the static inventory the ads engine auctions over.
var defaultAdCatalog = []Ad{
	{ID: "ad-coffee", Keyword: "coffee", Text: "Fresh roasted beans, 20% off", BidCents: 120},
	{ID: "ad-espresso", Keyword: "coffee", Text: "Espresso machines on sale", BidCents: 90},
	{ID: "ad-running", Keyword: "running", Text: "Marathon-ready shoes", BidCents: 150},
	{ID: "ad-camera", Keyword: "photo", Text: "Mirrorless cameras, new arrivals", BidCents: 200},
	{ID: "ad-travel", Keyword: "travel", Text: "Weekend getaways from $99", BidCents: 110},
	{ID: "ad-music", Keyword: "music", Text: "Stream 60M songs free", BidCents: 70},
	{ID: "ad-cloud", Keyword: "cloud", Text: "Deploy in 60 seconds", BidCents: 250},
	{ID: "ad-pizza", Keyword: "pizza", Text: "Two-for-one Tuesdays", BidCents: 60},
	{ID: "ad-books", Keyword: "book", Text: "Bestsellers under $10", BidCents: 50},
	{ID: "ad-fitness", Keyword: "gym", Text: "No-contract memberships", BidCents: 95},
}

// registerAds installs the ads service: a keyword auction over the static
// catalog; the highest-bidding ad whose keyword appears in the context
// terms wins (the suite's ML plugins stand in for heavier models).
func registerAds(srv *rpc.Server, catalog []Ad) {
	if len(catalog) == 0 {
		catalog = defaultAdCatalog
	}
	byKeyword := make(map[string][]Ad)
	for _, ad := range catalog {
		byKeyword[ad.Keyword] = append(byKeyword[ad.Keyword], ad)
	}
	for k := range byKeyword {
		sort.Slice(byKeyword[k], func(i, j int) bool {
			return byKeyword[k][i].BidCents > byKeyword[k][j].BidCents
		})
	}
	svcutil.Handle(srv, "Suggest", func(ctx *rpc.Ctx, req *AdsReq) (*AdsResp, error) {
		var best Ad
		found := false
		for _, term := range tokenize(req.Context) {
			if ads := byKeyword[term]; len(ads) > 0 {
				if !found || ads[0].BidCents > best.BidCents {
					best = ads[0]
					found = true
				}
			}
		}
		return &AdsResp{Ad: best, Found: found}, nil
	})
}

// RecommendReq asks for accounts a user might follow.
type RecommendReq struct {
	User  string
	Limit int64
}

// RecommendResp returns suggested usernames, best first.
type RecommendResp struct{ Users []string }

// registerRecommender installs the user recommender: friends-of-friends
// collaborative filtering — candidates are followees of the user's
// followees, ranked by how many of the user's followees also follow them,
// excluding accounts already followed.
func registerRecommender(srv *rpc.Server, graph svcutil.Caller) {
	svcutil.Handle(srv, "Recommend", func(ctx *rpc.Ctx, req *RecommendReq) (*RecommendResp, error) {
		if req.User == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "recommender: user required")
		}
		limit := int(req.Limit)
		if limit <= 0 {
			limit = 5
		}
		var mine NeighborsResp
		if err := graph.Call(ctx, "Followees", NeighborsReq{User: req.User}, &mine); err != nil {
			return nil, err
		}
		following := make(map[string]bool, len(mine.Users))
		for _, u := range mine.Users {
			following[u] = true
		}
		scores := make(map[string]int)
		for _, friend := range mine.Users {
			var theirs NeighborsResp
			if err := graph.Call(ctx, "Followees", NeighborsReq{User: friend}, &theirs); err != nil {
				return nil, err
			}
			for _, candidate := range theirs.Users {
				if candidate == req.User || following[candidate] {
					continue
				}
				scores[candidate]++
			}
		}
		type scored struct {
			user  string
			score int
		}
		ranked := make([]scored, 0, len(scores))
		for u, s := range scores {
			ranked = append(ranked, scored{u, s})
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].score != ranked[j].score {
				return ranked[i].score > ranked[j].score
			}
			return ranked[i].user < ranked[j].user
		})
		if len(ranked) > limit {
			ranked = ranked[:limit]
		}
		out := make([]string, len(ranked))
		for i, r := range ranked {
			out[i] = r.user
		}
		return &RecommendResp{Users: out}, nil
	})
}

// FavoriteReq marks a post as favorited by a user.
type FavoriteReq struct{ User, PostID string }

// FavoriteCountResp returns a post's favorite count.
type FavoriteCountResp struct{ Count int64 }

// registerFavorite installs the favorite service: an idempotent per-user
// mark with a hot counter in the cache tier.
func registerFavorite(srv *rpc.Server, db svcutil.DB, mc svcutil.KV) {
	svcutil.Handle(srv, "Favorite", func(ctx *rpc.Ctx, req *FavoriteReq) (*FavoriteCountResp, error) {
		if req.User == "" || req.PostID == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "favorite: user and post required")
		}
		added, err := addEdge(ctx, db, "fav:"+req.PostID, req.User)
		if err != nil {
			return nil, err
		}
		if !added {
			n, err := mc.Incr(ctx, "favcount:"+req.PostID, 0)
			return &FavoriteCountResp{Count: n}, err
		}
		n, err := mc.Incr(ctx, "favcount:"+req.PostID, 1)
		if err != nil {
			return nil, err
		}
		return &FavoriteCountResp{Count: n}, nil
	})
}
