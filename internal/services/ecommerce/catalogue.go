package ecommerce

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

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
// mining memcached and MongoDB in Figure 6). Item lookups — the hottest
// read in the app, hit by browse, search, discounts, and order placement —
// run through the shared cache-aside ReadPath: cached under "item:<id>"
// (invalidated by Add and AdjustStock), with concurrent misses on one item
// coalesced into a single backing Get.
func registerCatalogue(srv *rpc.Server, db svcutil.DB, mc svcutil.KV) {
	svcutil.Handle(srv, "Add", func(ctx *rpc.Ctx, req *AddItemReq) (*struct{}, error) {
		it := req.Item
		if it.ID == "" || it.Name == "" || it.PriceCents < 0 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "catalogue: invalid item")
		}
		body, err := codec.Marshal(it)
		if err != nil {
			return nil, err
		}
		fields := map[string]string{"all": "1"}
		for _, tag := range it.Tags {
			fields["tag-"+tag] = "1"
		}
		if err := db.Put(ctx, "items", docstore.Doc{ID: it.ID, Fields: fields, Body: body}); err != nil {
			return nil, err
		}
		mc.Delete(ctx, "item:"+it.ID) //nolint:errcheck
		return nil, nil
	})

	itemPath := &svcutil.ReadPath[Item]{
		MC:  mc,
		TTL: itemCacheTTL,
		Decode: func(b []byte) (Item, error) {
			var it Item
			err := codec.Unmarshal(b, &it)
			return it, err
		},
		Fetch: func(ctx context.Context, key string) (Item, []byte, bool, error) {
			id := strings.TrimPrefix(key, "item:")
			doc, found, err := db.Get(ctx, "items", id)
			if err != nil || !found {
				return Item{}, nil, false, err
			}
			var it Item
			if err := codec.Unmarshal(doc.Body, &it); err != nil {
				return Item{}, nil, false, fmt.Errorf("catalogue: corrupt item %s: %w", id, err)
			}
			return it, doc.Body, true, nil
		},
	}

	svcutil.Handle(srv, "Get", func(ctx *rpc.Ctx, req *GetItemReq) (*GetItemResp, error) {
		it, found, err := itemPath.Get(ctx, "item:"+req.ID)
		if err != nil {
			return nil, err
		}
		return &GetItemResp{Item: it, Found: found}, nil
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
			var it Item
			if codec.Unmarshal(d.Body, &it) == nil {
				out = append(out, it)
			}
		}
		return &ItemsResp{Items: out}, nil
	})

	svcutil.Handle(srv, "AdjustStock", func(ctx *rpc.Ctx, req *AdjustStockReq) (*GetItemResp, error) {
		doc, found, err := db.Get(ctx, "items", req.ItemID)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, rpc.NotFoundf("catalogue: no item %q", req.ItemID)
		}
		var it Item
		if err := codec.Unmarshal(doc.Body, &it); err != nil {
			return nil, err
		}
		if it.Stock+req.Delta < 0 {
			return nil, rpc.Errorf(rpc.CodeConflict, "catalogue: %s out of stock", req.ItemID)
		}
		it.Stock += req.Delta
		body, err := codec.Marshal(it)
		if err != nil {
			return nil, err
		}
		doc.Body = body
		if err := db.Put(ctx, "items", doc); err != nil {
			return nil, err
		}
		mc.Delete(ctx, "item:"+req.ItemID) //nolint:errcheck
		return &GetItemResp{Item: it, Found: true}, nil
	})
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

// DiscountReq asks the discount for a set of lines.
type DiscountReq struct{ Lines []CartLine }

// DiscountResp returns the discount in cents.
type DiscountResp struct{ DiscountCents int64 }

// discountRule is a per-tag percentage discount.
type discountRule struct {
	Tag string
	Pct int64
}

// registerDiscounts installs the discounts service: per-tag percentage
// promotions plus a 5% bulk discount on orders of 10+ units.
func registerDiscounts(srv *rpc.Server, catalogue svcutil.Caller, rules []discountRule) {
	if rules == nil {
		rules = []discountRule{{Tag: "sale", Pct: 20}, {Tag: "clearance", Pct: 50}}
	}
	pctFor := func(it Item) int64 {
		var best int64
		for _, r := range rules {
			for _, tag := range it.Tags {
				if tag == r.Tag && r.Pct > best {
					best = r.Pct
				}
			}
		}
		return best
	}
	svcutil.Handle(srv, "Quote", func(ctx *rpc.Ctx, req *DiscountReq) (*DiscountResp, error) {
		var discount, units int64
		for _, line := range req.Lines {
			var item GetItemResp
			if err := catalogue.Call(ctx, "Get", GetItemReq{ID: line.ItemID}, &item); err != nil {
				return nil, err
			}
			if !item.Found {
				continue
			}
			discount += item.Item.PriceCents * line.Quantity * pctFor(item.Item) / 100
			units += line.Quantity
		}
		if units >= 10 {
			var subtotal int64
			for _, line := range req.Lines {
				var item GetItemResp
				if err := catalogue.Call(ctx, "Get", GetItemReq{ID: line.ItemID}, &item); err != nil {
					return nil, err
				}
				subtotal += item.Item.PriceCents * line.Quantity
			}
			discount += subtotal * 5 / 100
		}
		return &DiscountResp{DiscountCents: discount}, nil
	})
}
