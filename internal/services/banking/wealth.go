package banking

import (
	"sort"

	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/services/accounts"
	"dsb/internal/sqlstore"
	"dsb/internal/svcutil"
)

// Holding is one position in a wealth-management portfolio.
type Holding struct {
	Symbol string
	Shares int64
}

// PortfolioReq reads or mutates a portfolio.
type PortfolioReq struct {
	Token string
	Buy   []Holding // optional positions to add
}

// PortfolioResp returns positions and their marked value.
type PortfolioResp struct {
	Holdings   []Holding
	ValueCents int64
}

// priceTable is the deterministic mark-to-market source (cents/share).
var priceTable = map[string]int64{
	"VTI": 26150, "BND": 7230, "VXUS": 6180, "QQQ": 48920, "GLD": 21540,
}

// registerWealthMgmt installs the wealthMgmt service over its own store
// (wealthMgmtDB in Figure 7).
func registerWealthMgmt(srv *rpc.Server, auth svcutil.Caller, db svcutil.DB) {
	svcutil.Handle(srv, "Portfolio", func(ctx *rpc.Ctx, req *PortfolioReq) (*PortfolioResp, error) {
		username, err := accounts.Verify(ctx, auth, req.Token)
		if err != nil {
			return nil, err
		}
		doc, found, err := db.Get(ctx, "portfolios", username)
		if err != nil {
			return nil, err
		}
		var holdings []Holding
		if found {
			if err := codec.Unmarshal(doc.Body, &holdings); err != nil {
				return nil, err
			}
		}
		for _, buy := range req.Buy {
			if buy.Shares <= 0 {
				return nil, rpc.Errorf(rpc.CodeBadRequest, "wealthMgmt: non-positive share count")
			}
			if _, ok := priceTable[buy.Symbol]; !ok {
				return nil, rpc.Errorf(rpc.CodeBadRequest, "wealthMgmt: unknown symbol %q", buy.Symbol)
			}
			merged := false
			for i := range holdings {
				if holdings[i].Symbol == buy.Symbol {
					holdings[i].Shares += buy.Shares
					merged = true
					break
				}
			}
			if !merged {
				holdings = append(holdings, buy)
			}
		}
		if len(req.Buy) > 0 {
			body, err := codec.Marshal(holdings)
			if err != nil {
				return nil, err
			}
			if err := db.Put(ctx, "portfolios", docstore.Doc{ID: username, Body: body}); err != nil {
				return nil, err
			}
		}
		var value int64
		for _, h := range holdings {
			value += priceTable[h.Symbol] * h.Shares
		}
		sort.Slice(holdings, func(i, j int) bool { return holdings[i].Symbol < holdings[j].Symbol })
		return &PortfolioResp{Holdings: holdings, ValueCents: value}, nil
	})
}

// OfferReq asks for the banner for a customer segment.
type OfferReq struct{ Segment string }

// OfferResp returns the chosen offer.
type OfferResp struct {
	Offer Offer
	Found bool
}

// registerOfferBanners installs the offerBanners service over OfferDB.
func registerOfferBanners(srv *rpc.Server, offers []Offer) {
	if offers == nil {
		offers = []Offer{
			{ID: "of-1", Segment: "retail", Text: "0.5% APY bonus on new savings"},
			{ID: "of-2", Segment: "premium", Text: "Fee-free wealth management for a year"},
			{ID: "of-3", Segment: "business", Text: "Business line of credit at prime"},
		}
	}
	bySegment := make(map[string]Offer, len(offers))
	for _, o := range offers {
		bySegment[o.Segment] = o
	}
	svcutil.Handle(srv, "For", func(ctx *rpc.Ctx, req *OfferReq) (*OfferResp, error) {
		o, ok := bySegment[req.Segment]
		return &OfferResp{Offer: o, Found: ok}, nil
	})
}

// BranchReq looks up branches by city.
type BranchReq struct{ City string }

// BranchResp returns matching branches.
type BranchResp struct{ Branches []Branch }

// newBankInfoDB creates the relational BankInfoDB with branch data.
func newBankInfoDB() (*sqlstore.DB, error) {
	db := sqlstore.NewDB()
	if err := db.CreateTable(sqlstore.Schema{
		Name:       "branches",
		PrimaryKey: "id",
		Columns:    []string{"id", "city", "rep", "phone"},
		Indexed:    []string{"city"},
	}); err != nil {
		return nil, err
	}
	seed := []sqlstore.Row{
		{"id": "br-1", "city": "ithaca", "rep": "M. Keynes", "phone": "555-0101"},
		{"id": "br-2", "city": "ithaca", "rep": "J. Robinson", "phone": "555-0102"},
		{"id": "br-3", "city": "nyc", "rep": "A. Smith", "phone": "555-0201"},
	}
	for _, r := range seed {
		if err := db.Insert("branches", r); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// registerBankInfo installs the contact/bank-information service over
// BankInfoDB.
func registerBankInfo(srv *rpc.Server, db *sqlstore.DB) {
	svcutil.Handle(srv, "Branches", func(ctx *rpc.Ctx, req *BranchReq) (*BranchResp, error) {
		rows, err := db.Select("branches", "city", req.City, 0)
		if err != nil {
			return nil, err
		}
		out := make([]Branch, 0, len(rows))
		for _, r := range rows {
			out = append(out, Branch{ID: r["id"], City: r["city"], Rep: r["rep"], Phone: r["phone"]})
		}
		return &BranchResp{Branches: out}, nil
	})
}
