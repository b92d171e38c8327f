package ecommerce

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/services/accounts"
	"dsb/internal/svcutil"
)

// ShippingQuoteReq quotes shipping for a weight.
type ShippingQuoteReq struct{ WeightGram int64 }

// ShippingQuoteResp returns the available options, cheapest first.
type ShippingQuoteResp struct{ Options []ShippingOption }

// registerShipping installs the shipping service: weight-banded pricing
// with standard/express/overnight methods.
func registerShipping(srv *rpc.Server) {
	svcutil.Handle(srv, "Quote", func(ctx *rpc.Ctx, req *ShippingQuoteReq) (*ShippingQuoteResp, error) {
		if req.WeightGram < 0 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "shipping: negative weight")
		}
		// Base + per-kg pricing per method.
		perKg := (req.WeightGram + 999) / 1000
		return &ShippingQuoteResp{Options: []ShippingOption{
			{Method: "standard", CostCents: 300 + 50*perKg, Days: 5},
			{Method: "express", CostCents: 700 + 90*perKg, Days: 2},
			{Method: "overnight", CostCents: 1500 + 150*perKg, Days: 1},
		}}, nil
	})
}

// AuthorizePaymentReq authorizes a charge against an account.
type AuthorizePaymentReq struct {
	Username    string
	AmountCents int64
}

// registerPayment installs the payment service, which consults the
// authorization tier and debits the account.
func registerPayment(srv *rpc.Server, authorization, accountInfo svcutil.Caller) {
	svcutil.Handle(srv, "Charge", func(ctx *rpc.Ctx, req *AuthorizePaymentReq) (*struct{}, error) {
		if err := authorization.Call(ctx, "Authorize", *req, nil); err != nil {
			return nil, err
		}
		return nil, accountInfo.Call(ctx, "Debit", *req, nil)
	})
}

// registerAuthorization installs the authorization tier: balance check and
// per-order risk ceiling; an authorized payment is answered empty.
func registerAuthorization(srv *rpc.Server, accountInfo svcutil.Caller) {
	svcutil.Handle(srv, "Authorize", func(ctx *rpc.Ctx, req *AuthorizePaymentReq) (*struct{}, error) {
		if req.AmountCents <= 0 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "authorization: non-positive amount")
		}
		if req.AmountCents > 500000 {
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "authorization: amount above risk ceiling")
		}
		var bal BalanceResp
		if err := accountInfo.Call(ctx, "Balance", AccountReq{Username: req.Username}, &bal); err != nil {
			return nil, err
		}
		if bal.BalanceCents < req.AmountCents {
			return nil, rpc.Errorf(rpc.CodeUnauthorized, "authorization: insufficient funds")
		}
		return nil, nil
	})
}

// TransactionIDResp returns a globally unique transaction identifier.
type TransactionIDResp struct{ ID string }

// registerTransactionID installs the transactionID service.
func registerTransactionID(srv *rpc.Server) {
	var seq atomic.Uint64
	svcutil.Handle(srv, "Next", func(ctx *rpc.Ctx, req *struct{}) (*TransactionIDResp, error) {
		return &TransactionIDResp{ID: fmt.Sprintf("txn-%d-%06d", time.Now().UnixMilli(), seq.Add(1))}, nil
	})
}

// InvoiceReq issues an invoice for an order.
type InvoiceReq struct {
	OrderID    string
	Username   string
	TotalCents int64
}

// InvoiceResp returns the invoice.
type InvoiceResp struct{ Invoice Invoice }

// registerInvoicing installs the invoicing service. An order has one
// invoice, so the invoice ID is the order's: replicas need no counter of
// their own to agree on.
func registerInvoicing(srv *rpc.Server, db svcutil.DB) {
	svcutil.Handle(srv, "Issue", func(ctx *rpc.Ctx, req *InvoiceReq) (*InvoiceResp, error) {
		if req.OrderID == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "invoicing: order ID required")
		}
		inv := Invoice{
			ID:         "inv-" + strings.TrimPrefix(req.OrderID, "ord-"),
			OrderID:    req.OrderID,
			Username:   req.Username,
			TotalCents: req.TotalCents,
			IssuedAt:   time.Now().UnixNano(),
		}
		body, err := codec.Marshal(inv)
		if err != nil {
			return nil, err
		}
		if err := db.Put(ctx, "invoices", docstore.Doc{ID: inv.ID, Body: body}); err != nil {
			return nil, err
		}
		return &InvoiceResp{Invoice: inv}, nil
	})
}

// PlaceOrderReq places the caller's cart as an order. It is also the JSON
// body of POST /orders.
type PlaceOrderReq struct {
	Token    string `json:"token"`
	Shipping string `json:"shipping"` // "standard" | "express" | "overnight"
}

// PlaceOrderResp returns the queued order.
type PlaceOrderResp struct{ Order Order }

// GetOrderReq fetches an order by ID.
type GetOrderReq struct{ ID string }

// GetOrderResp returns the order.
type GetOrderResp struct {
	Order Order
	Found bool
}

// OrdersByUserReq lists a user's orders.
type OrdersByUserReq struct{ Username string }

// OrdersResp returns orders.
type OrdersResp struct{ Orders []Order }

// ordersDeps are the tiers the orders orchestrator fans out to.
type ordersDeps struct {
	user        svcutil.Caller
	cart        svcutil.Caller
	catalogue   svcutil.Caller
	shipping    svcutil.Caller
	discounts   svcutil.Caller
	payment     svcutil.Caller
	transaction svcutil.Caller
	invoicing   svcutil.Caller
	queueMaster svcutil.Caller
	db          svcutil.DB
}

// registerOrders installs the orders orchestrator — the longest path in the
// application (1–2 orders of magnitude slower than catalogue browsing, per
// Section 3.8): authenticate, price the cart, quote shipping, apply
// discounts, authorize and charge payment, issue the transaction ID and
// invoice, enqueue the order for serialized commit, and clear the cart.
// The order ID is the transaction ID the single transactionID tier issued,
// so replicas of this tier never mint the same one, and IDs still sort in
// the order they were issued.
func registerOrders(srv *rpc.Server, deps ordersDeps) {
	svcutil.Handle(srv, "Place", func(ctx *rpc.Ctx, req *PlaceOrderReq) (*PlaceOrderResp, error) {
		username, err := accounts.Verify(ctx, deps.user, req.Token)
		if err != nil {
			return nil, err
		}
		var cart CartResp
		if err := deps.cart.Call(ctx, "Get", CartReq{Username: username}, &cart); err != nil {
			return nil, err
		}
		if len(cart.Lines) == 0 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "orders: cart is empty")
		}

		// Price items and total weight.
		var itemsCents, weight int64
		priced := make([]PricedLine, 0, len(cart.Lines))
		for _, line := range cart.Lines {
			var item GetItemResp
			if err := deps.catalogue.Call(ctx, "Get", GetItemReq{ID: line.ItemID}, &item); err != nil {
				return nil, err
			}
			if !item.Found {
				return nil, rpc.NotFoundf("orders: item %q vanished", line.ItemID)
			}
			if item.Item.Stock < line.Quantity {
				return nil, rpc.Errorf(rpc.CodeConflict, "orders: %s out of stock", line.ItemID)
			}
			itemsCents += item.Item.PriceCents * line.Quantity
			weight += item.Item.WeightGram * line.Quantity
			priced = append(priced, PricedLine{ItemID: line.ItemID, Quantity: line.Quantity, PriceCents: item.Item.PriceCents, Tags: item.Item.Tags})
		}

		// Shipping quote and method selection.
		var quote ShippingQuoteResp
		if err := deps.shipping.Call(ctx, "Quote", ShippingQuoteReq{WeightGram: weight}, &quote); err != nil {
			return nil, err
		}
		var shipping *ShippingOption
		for i := range quote.Options {
			if quote.Options[i].Method == req.Shipping {
				shipping = &quote.Options[i]
			}
		}
		if shipping == nil {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "orders: unknown shipping method %q", req.Shipping)
		}

		// Discounts.
		var discount DiscountResp
		if err := deps.discounts.Call(ctx, "Quote", DiscountReq{Lines: priced}, &discount); err != nil {
			return nil, err
		}
		total := itemsCents - discount.DiscountCents + shipping.CostCents
		if total < 0 {
			total = 0
		}

		// Payment: authorize + charge.
		if err := deps.payment.Call(ctx, "Charge", AuthorizePaymentReq{Username: username, AmountCents: total}, nil); err != nil {
			return nil, err
		}
		var txn TransactionIDResp
		if err := deps.transaction.Call(ctx, "Next", struct{}{}, &txn); err != nil {
			return nil, err
		}

		order := Order{
			ID:            "ord-" + strings.TrimPrefix(txn.ID, "txn-"),
			Username:      username,
			Lines:         cart.Lines,
			ItemsCents:    itemsCents,
			DiscountCents: discount.DiscountCents,
			ShippingCents: shipping.CostCents,
			TotalCents:    total,
			Shipping:      shipping.Method,
			TransactionID: txn.ID,
			Status:        StatusQueued,
			CreatedAt:     time.Now().UnixNano(),
		}
		var inv InvoiceResp
		if err := deps.invoicing.Call(ctx, "Issue", InvoiceReq{OrderID: order.ID, Username: order.Username, TotalCents: total}, &inv); err != nil {
			return nil, err
		}
		order.InvoiceID = inv.Invoice.ID

		if err := storeOrder(ctx, deps.db, order); err != nil {
			return nil, err
		}
		// Hand off to queueMaster for serialized commit, then clear cart.
		if err := enqueueOrder(ctx, deps.queueMaster, order.ID); err != nil {
			return nil, err
		}
		if err := deps.cart.Call(ctx, "Clear", CartReq{Username: username}, nil); err != nil {
			return nil, err
		}
		return &PlaceOrderResp{Order: order}, nil
	})

	svcutil.Handle(srv, "Get", func(ctx *rpc.Ctx, req *GetOrderReq) (*GetOrderResp, error) {
		order, found, err := loadOrder(ctx, deps.db, req.ID)
		if err != nil {
			return nil, err
		}
		return &GetOrderResp{Order: order, Found: found}, nil
	})

	svcutil.Handle(srv, "ByUser", func(ctx *rpc.Ctx, req *OrdersByUserReq) (*OrdersResp, error) {
		docs, err := deps.db.Find(ctx, "orders", "user", req.Username, 100)
		if err != nil {
			return nil, err
		}
		out := make([]Order, 0, len(docs))
		for _, d := range docs {
			var o Order
			if codec.Unmarshal(d.Body, &o) == nil {
				out = append(out, o)
			}
		}
		return &OrdersResp{Orders: out}, nil
	})
}

func storeOrder(ctx *rpc.Ctx, db svcutil.DB, o Order) error {
	body, err := codec.Marshal(o)
	if err != nil {
		return err
	}
	return db.Put(ctx, "orders", docstore.Doc{
		ID:     o.ID,
		Fields: map[string]string{"user": o.Username},
		Body:   body,
	})
}

func loadOrder(ctx *rpc.Ctx, db svcutil.DB, id string) (Order, bool, error) {
	doc, found, err := db.Get(ctx, "orders", id)
	if err != nil || !found {
		return Order{}, false, err
	}
	var o Order
	if err := codec.Unmarshal(doc.Body, &o); err != nil {
		return Order{}, false, fmt.Errorf("orders: corrupt order %s: %w", id, err)
	}
	return o, true, nil
}
