package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"dsb/internal/core"
	"dsb/internal/services/ecommerce"
	"dsb/internal/transport"
)

// ecommerce_checkout sizes, frozen by the sizing pass (README "Sizing").
const (
	ecomItems   = 2000
	ecomBuyers  = 400
	ecomClients = 2
	// Measured on the reference box: about 1.9 k checkouts/s, so a rep is
	// about 3.7 s.
	ecomOps  = 7000 // checkouts per client
	ecomWarm = 2400 // per client
	// ecomOrderWorkers: with the default single commit worker the
	// orderQueue backlog stayed below 40 of maxQueueDepth (256) through
	// every sizing rep and nothing was shed, so ecommerce.Config{} stays.
	ecomOrderWorkers = 0

	// The order topic and commit group queueMaster consumes
	// (ecommerce/queue.go keeps these names to itself).
	ecomOrderTopic = "orderQueue"
	ecomOrderGroup = "commit"
)

// ecomOp is one checkout: put quantity 1 of item into buyer's cart, then
// place the cart as an order.
type ecomOp struct{ buyer, item int32 }

type ecomInputs struct {
	items  []ecommerce.Item
	buyers []string
	// warm and ops are each client's checkouts.
	warm, ops [][]ecomOp
}

func (in *ecomInputs) counts() []int     { return lens(in.ops) }
func (in *ecomInputs) warmCounts() []int { return lens(in.warm) }

func (in *ecomInputs) due() []time.Duration { return nil }

// generateEcom builds the catalogue, the buyers and the checkout lists.
// Clients own disjoint halves of the buyers, so one buyer's cart never sees
// two checkouts at once; how often each buyer buys and each item is bought
// follows Zipf(0.9) as exact quotas (see quota), the seed pairs and orders
// them.
func generateEcom(seed uint64) *ecomInputs {
	in := &ecomInputs{}
	for i := 0; i < ecomItems; i++ {
		var tags []string
		if i%5 == 0 {
			tags = []string{"sale"}
		}
		in.items = append(in.items, ecommerce.Item{
			ID: fmt.Sprintf("item%04d", i), Name: fmt.Sprintf("Item %d", i), Tags: tags,
			PriceCents: int64(500 + i%4000), WeightGram: int64(100 + i%900),
			// Never runs out: no checkout may fail on stock.
			Stock: 1 << 40,
		})
	}
	for b := 0; b < ecomBuyers; b++ {
		in.buyers = append(in.buyers, fmt.Sprintf("buyer%03d", b))
	}
	rng := rand.New(rand.NewPCG(seed, 0xEC0))
	per := ecomBuyers / ecomClients
	buyerShare, itemShare := zipfWeights(per, 0.9), zipfWeights(ecomItems, 0.9)
	draw := func(client, n int) []ecomOp {
		buyers, items := quota(rng, buyerShare, n), quota(rng, itemShare, n)
		out := make([]ecomOp, n)
		for i := range out {
			out[i] = ecomOp{buyer: int32(client*per) + buyers[i], item: items[i]}
		}
		return out
	}
	for c := 0; c < ecomClients; c++ {
		in.warm = append(in.warm, draw(c, ecomWarm))
		in.ops = append(in.ops, draw(c, ecomOps))
	}
	return in
}

type ecomStack struct {
	in     *ecomInputs
	ec     *ecommerce.Ecommerce
	tokens []string
	// orders[client][i] is the order op i placed.
	orders [][]string
}

func (in *ecomInputs) boot(app *core.App, lap func()) (stack, error) {
	ec, err := ecommerce.New(app, ecommerce.Config{OrderWorkers: ecomOrderWorkers})
	if err != nil {
		return nil, err
	}
	lap()
	st := &ecomStack{in: in, ec: ec, tokens: make([]string, ecomBuyers), orders: make([][]string, len(in.ops))}
	for c := range in.ops {
		st.orders[c] = make([]string, len(in.ops[c]))
	}
	if err := ec.SeedItems(in.items); err != nil {
		return nil, fmt.Errorf("seed items: %w", err)
	}
	lap()
	ctx := context.Background()
	for b, name := range in.buyers {
		// Never runs dry: no checkout may fail on funds.
		reg := ecommerce.RegisterUserReq{Username: name, Password: "pw", BalanceCents: 1 << 40}
		if err := ec.User.Call(ctx, "Register", reg, nil); err != nil {
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
		var login ecommerce.LoginResp
		if err := ec.User.Call(ctx, "Login", ecommerce.LoginReq{Username: name, Password: "pw"}, &login); err != nil {
			return nil, fmt.Errorf("login %s: %w", name, err)
		}
		st.tokens[b] = login.Token
	}
	lap()
	return st, nil
}

func (st *ecomStack) warm(ctx context.Context, client, i int) error {
	_, err := st.checkout(ctx, &st.in.warm[client][i])
	return err
}

func (st *ecomStack) do(ctx context.Context, client, i int) error {
	id, err := st.checkout(ctx, &st.in.ops[client][i])
	st.orders[client][i] = id
	return err
}

// checkout is one op: Cart.Add then Orders.Place — token, cart, catalogue,
// shipping, discounts, payment → authorization → accountInfo, transactionID,
// invoicing, the db-orders Put and queueMaster.Enqueue → broker, strictly in
// sequence.
func (st *ecomStack) checkout(ctx context.Context, op *ecomOp) (string, error) {
	buyer := st.in.buyers[op.buyer]
	add := ecommerce.CartAddReq{Username: buyer, ItemID: st.in.items[op.item].ID, Quantity: 1}
	if err := st.ec.Cart.Call(ctx, "Add", add, nil); err != nil {
		return "", err
	}
	var placed ecommerce.PlaceOrderResp
	place := ecommerce.PlaceOrderReq{Token: st.tokens[op.buyer], Shipping: "standard"}
	if err := st.ec.Orders.Call(ctx, "Place", place, &placed); err != nil {
		if transport.IsCode(err, transport.CodeOverloaded) {
			return "", fmt.Errorf("order queue shed the checkout: %w", err)
		}
		return "", err
	}
	o := &placed.Order
	if o.ID == "" || o.Username != buyer || len(o.Lines) != 1 || o.Lines[0].ItemID != add.ItemID || o.Status != ecommerce.StatusQueued {
		return "", fmt.Errorf("%w: checkout by %s of %s placed order %+v", errCheck, buyer, add.ItemID, *o)
	}
	return o.ID, nil
}

// drain ends the rep only when the commit backlog is empty and each client's
// last order has left the queued state, so the asynchronous half of a
// checkout — consume, stock decrement, status write, ack — is inside the
// measured section instead of hidden behind it.
func (st *ecomStack) drain() error {
	deadline := time.Now().Add(30 * time.Second)
	for st.ec.Broker.GroupLag(ecomOrderTopic, ecomOrderGroup) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("order backlog still %d", st.ec.Broker.GroupLag(ecomOrderTopic, ecomOrderGroup))
		}
		time.Sleep(200 * time.Microsecond)
	}
	for _, ids := range st.orders {
		for i := len(ids) - 1; i >= 0; i-- {
			if ids[i] == "" {
				continue
			}
			if _, err := st.ec.WaitForOrder(ids[i], 30*time.Second); err != nil {
				return err
			}
			break
		}
	}
	return nil
}

// verify checks that every checkout placed an order, that every order
// reached a terminal status, and that the broker saw exactly one publish and
// one ack per checkout with nothing dead-lettered.
func (st *ecomStack) verify() error {
	ctx := context.Background()
	placed := ecomClients * ecomWarm
	for _, ids := range st.orders {
		for _, id := range ids {
			if id == "" {
				continue // counted as a failed op by the driver
			}
			placed++
			var got ecommerce.GetOrderResp
			if err := st.ec.Orders.Call(ctx, "Get", ecommerce.GetOrderReq{ID: id}, &got); err != nil {
				return err
			}
			if !got.Found || got.Order.Status != ecommerce.StatusCommitted {
				return fmt.Errorf("order %s ended %q (found %v), want committed", id, got.Order.Status, got.Found)
			}
		}
	}
	s := st.ec.Broker.GroupStats(ecomOrderTopic, ecomOrderGroup)
	if s.Published != int64(placed) || s.Acked != int64(placed) || s.DeadLettered != 0 {
		return fmt.Errorf("broker published %d, acked %d, dead-lettered %d; %d orders placed", s.Published, s.Acked, s.DeadLettered, placed)
	}
	return nil
}

func (st *ecomStack) close() { st.ec.Close() }
