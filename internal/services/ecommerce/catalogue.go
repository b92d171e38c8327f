package ecommerce

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"dsb/internal/coalesce"
	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// AddItemReq inserts or replaces a catalogue item.
type AddItemReq struct{ Item Item }

// GetItemReq fetches an item.
type GetItemReq struct{ ID string }

// GetItemResp returns the item.
type GetItemResp struct {
	Item  Item
	Found bool
}

// ListItemsReq pages the catalogue by tag ("" = all).
type ListItemsReq struct {
	Tag   string
	Limit int64
}

// ItemsResp returns items.
type ItemsResp struct{ Items []Item }

// AdjustStockReq changes stock (negative = sale). Fails if it would go
// below zero.
type AdjustStockReq struct {
	ItemID string
	Delta  int64
}

const itemCacheTTL = 5 * time.Minute

// registerCatalogue installs the catalogue service (the Go microservice
// mining memcached and MongoDB in Figure 6). An item's stock is a number in
// its document, which AdjustStock changes in one store-side add, and it is
// cached apart from the rest of the item: "item:<id>" holds the item less its
// stock, "stock:<id>" the stock as a cache counter, which AdjustStock moves
// by the same delta. So a commit leaves the item cached, and a lookup — the
// hottest read in the app, hit by browse, search and order placement — is
// one MGet; concurrent misses on one item coalesce into a single backing Get.
func registerCatalogue(srv *rpc.Server, db svcutil.DB, mc svcutil.KV) {
	svcutil.Handle(srv, "Add", func(ctx *rpc.Ctx, req *AddItemReq) (*struct{}, error) {
		it := req.Item
		if it.ID == "" || it.Name == "" || it.PriceCents < 0 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "catalogue: invalid item")
		}
		stock := it.Stock
		it.Stock = 0
		body, err := codec.Marshal(it)
		if err != nil {
			return nil, err
		}
		fields := map[string]string{"all": "1"}
		for _, tag := range it.Tags {
			fields["tag-"+tag] = "1"
		}
		doc := docstore.Doc{ID: it.ID, Fields: fields, Nums: map[string]int64{"stock": stock}, Body: body}
		if err := db.Put(ctx, "items", doc); err != nil {
			return nil, err
		}
		// Write-through: the next lookup of a new item hits too.
		mc.Set(ctx, "item:"+it.ID, body, itemCacheTTL)                               //nolint:errcheck
		mc.Set(ctx, "stock:"+it.ID, strconv.AppendInt(nil, stock, 10), itemCacheTTL) //nolint:errcheck
		return nil, nil
	})

	var misses coalesce.Group[GetItemResp]
	svcutil.Handle(srv, "Get", func(ctx *rpc.Ctx, req *GetItemReq) (*GetItemResp, error) {
		keys := []string{"item:" + req.ID, "stock:" + req.ID}
		cached, err := mc.MGet(ctx, keys)
		if err != nil {
			return nil, err
		}
		// Both entries decode from the reply's views, before it is released.
		var resp GetItemResp
		hit := len(cached) == 2 && codec.Unmarshal(cached[0].Value, &resp.Item) == nil
		if hit {
			resp.Item.Stock, err = strconv.ParseInt(string(cached[1].Value), 10, 64)
			hit = err == nil
		}
		cached.Release()
		if hit {
			resp.Found = true
			return &resp, nil
		}
		// A miss, or an entry that does not decode: the store answers, and
		// its answer replaces both entries.
		resp, err = misses.Do(ctx, req.ID, func(ctx context.Context) (GetItemResp, error) {
			doc, found, err := db.Get(ctx, "items", req.ID)
			if err != nil || !found {
				return GetItemResp{}, err
			}
			it, err := itemOf(doc)
			if err != nil {
				return GetItemResp{}, err
			}
			mc.Set(ctx, keys[0], doc.Body, itemCacheTTL)                             //nolint:errcheck
			mc.Set(ctx, keys[1], strconv.AppendInt(nil, it.Stock, 10), itemCacheTTL) //nolint:errcheck
			return GetItemResp{Item: it, Found: true}, nil
		})
		return &resp, err
	})

	svcutil.Handle(srv, "List", func(ctx *rpc.Ctx, req *ListItemsReq) (*ItemsResp, error) {
		field := "all"
		if req.Tag != "" {
			field = "tag-" + req.Tag
		}
		limit := int(req.Limit)
		if limit <= 0 {
			limit = 50
		}
		docs, err := db.Find(ctx, "items", field, "1", limit)
		if err != nil {
			return nil, err
		}
		out := make([]Item, 0, len(docs))
		for _, d := range docs {
			if it, err := itemOf(d); err == nil {
				out = append(out, it)
			}
		}
		return &ItemsResp{Items: out}, nil
	})

	svcutil.Handle(srv, "AdjustStock", func(ctx *rpc.Ctx, req *AdjustStockReq) (*struct{}, error) {
		stock, found, ok, err := db.AddNum(ctx, "items", req.ItemID, "stock", req.Delta, 0, false)
		switch {
		case err != nil:
			return nil, err
		case !found:
			return nil, rpc.NotFoundf("catalogue: no item %q", req.ItemID)
		case !ok:
			return nil, rpc.Errorf(rpc.CodeConflict, "catalogue: %s out of stock", req.ItemID)
		}
		// Adds commute, so concurrent adjustments leave the counter where they
		// leave the store. The one that finds no counter creates it at Delta:
		// it writes the stock whole.
		key := "stock:" + req.ItemID
		if got, err := mc.Incr(ctx, key, req.Delta); err == nil && got == req.Delta && got != stock {
			mc.Set(ctx, key, strconv.AppendInt(nil, stock, 10), itemCacheTTL) //nolint:errcheck
		}
		return nil, nil
	})
}

// itemOf is the item a catalogue document holds: its body, with the stock
// from its numbers.
func itemOf(doc docstore.Doc) (Item, error) {
	var it Item
	if err := codec.Unmarshal(doc.Body, &it); err != nil {
		return Item{}, fmt.Errorf("catalogue: corrupt item %s: %w", doc.ID, err)
	}
	it.Stock = doc.Nums["stock"]
	return it, nil
}

// SearchReq queries catalogue items by name/tag terms.
type SearchReq struct {
	Query string
	Limit int64
}

// registerSearch installs the e-commerce search tier: substring and token
// match over name and tags, scanning the catalogue service (small
// inventories, as in Sockshop).
func registerSearch(srv *rpc.Server, catalogue svcutil.Caller) {
	svcutil.Handle(srv, "Query", func(ctx *rpc.Ctx, req *SearchReq) (*ItemsResp, error) {
		var all ItemsResp
		if err := catalogue.Call(ctx, "List", ListItemsReq{Limit: 1000}, &all); err != nil {
			return nil, err
		}
		q := strings.ToLower(strings.TrimSpace(req.Query))
		if q == "" {
			return &ItemsResp{}, nil
		}
		terms := strings.Fields(q)
		type scored struct {
			item  Item
			score int
		}
		var hits []scored
		for _, it := range all.Items {
			name := strings.ToLower(it.Name)
			score := 0
			for _, term := range terms {
				if strings.Contains(name, term) {
					score += 2
				}
				for _, tag := range it.Tags {
					if strings.ToLower(tag) == term {
						score += 3
					}
				}
			}
			if score > 0 {
				hits = append(hits, scored{it, score})
			}
		}
		sort.Slice(hits, func(i, j int) bool {
			if hits[i].score != hits[j].score {
				return hits[i].score > hits[j].score
			}
			return hits[i].item.ID < hits[j].item.ID
		})
		limit := int(req.Limit)
		if limit <= 0 {
			limit = 10
		}
		if len(hits) > limit {
			hits = hits[:limit]
		}
		out := make([]Item, len(hits))
		for i, h := range hits {
			out[i] = h.item
		}
		return &ItemsResp{Items: out}, nil
	})
}

// PricedLine is a cart line with its item's price and tags, as orders
// priced it.
type PricedLine struct {
	ItemID     string
	Quantity   int64
	PriceCents int64
	Tags       []string
}

// DiscountReq asks the discount for a set of priced lines.
type DiscountReq struct{ Lines []PricedLine }

// DiscountResp returns the discount in cents.
type DiscountResp struct{ DiscountCents int64 }

// discountRule is a per-tag percentage discount.
type discountRule struct {
	Tag string
	Pct int64
}

// discountRules are the promotions the discounts service runs.
var discountRules = []discountRule{{Tag: "sale", Pct: 20}, {Tag: "clearance", Pct: 50}}

// registerDiscounts installs the discounts service, a leaf: per-tag
// percentage promotions plus a 5% bulk discount on orders of 10+ units,
// over the lines orders priced.
func registerDiscounts(srv *rpc.Server) {
	pctFor := func(tags []string) int64 {
		var best int64
		for _, r := range discountRules {
			for _, tag := range tags {
				if tag == r.Tag && r.Pct > best {
					best = r.Pct
				}
			}
		}
		return best
	}
	svcutil.Handle(srv, "Quote", func(ctx *rpc.Ctx, req *DiscountReq) (*DiscountResp, error) {
		var discount, units, subtotal int64
		for _, line := range req.Lines {
			discount += line.PriceCents * line.Quantity * pctFor(line.Tags) / 100
			units += line.Quantity
			subtotal += line.PriceCents * line.Quantity
		}
		if units >= 10 {
			discount += subtotal * 5 / 100
		}
		return &DiscountResp{DiscountCents: discount}, nil
	})
}
