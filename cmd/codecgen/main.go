// Command codecgen regenerates the wire_gen.go fast-path marshalers for the
// hot message types across the repo. Run from the module root:
//
//	go run ./cmd/codecgen          # rewrite every wire_gen.go
//	go run ./cmd/codecgen -check   # exit 1 if any on-disk file is stale
//
// The manifest below lists the root types per package; the emitter closes
// over nested same-package structs automatically, so adding a new request
// type with nested payload structs only needs the root here. A target's
// jsonRoots additionally get AppendJSON/DecodeJSON methods: list a type
// there when a REST front door returns it or a REST client decodes it on a
// hot path.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"dsb/internal/docstore"
	"dsb/internal/kv"
	"dsb/internal/mq"
	"dsb/internal/services/accounts"
	"dsb/internal/services/banking"
	"dsb/internal/services/ecommerce"
	"dsb/internal/services/media"
	"dsb/internal/services/socialnetwork"
	"dsb/internal/services/swarm"
)

type target struct {
	dir     string // relative to module root
	pkgName string
	roots   []any // zero values of the root message types, in output order
	// jsonRoots are the REST front-door types that also get generated JSON.
	jsonRoots []any
}

var targets = []target{
	{
		dir: "internal/kv", pkgName: "kv",
		roots: []any{
			kv.GetReq{}, kv.GetResp{}, kv.SetReq{}, kv.DeleteReq{}, kv.DeleteResp{},
			kv.MGetReq{}, kv.MGetResp{}, kv.IncrReq{}, kv.IncrResp{},
		},
	},
	{
		dir: "internal/docstore", pkgName: "docstore",
		roots: []any{
			docstore.Doc{}, docstore.PutReq{}, docstore.GetReq{}, docstore.GetResp{},
			docstore.FindReq{}, docstore.FindResp{},
			docstore.ListPrependReq{}, docstore.ListPrependResp{}, docstore.WALRecord{},
			docstore.ListRemoveReq{}, docstore.ListRemoveResp{},
			docstore.AddNumReq{}, docstore.AddNumResp{},
		},
	},
	{
		dir: "internal/mq", pkgName: "mq",
		roots: []any{
			mq.Message{}, mq.PublishReq{}, mq.MirrorReq{}, mq.MirrorResp{}, mq.PublishResp{},
			mq.SubscribeReq{}, mq.ConsumeReq{}, mq.ConsumeResp{}, mq.PushReq{},
			mq.AckReq{}, mq.AckResp{},
		},
	},
	{
		dir: "internal/services/accounts", pkgName: "accounts",
		roots: []any{
			accounts.RegisterReq{}, accounts.LoginReq{}, accounts.LoginResp{},
			accounts.VerifyTokenReq{}, accounts.VerifyTokenResp{},
		},
	},
	{
		dir: "internal/services/socialnetwork", pkgName: "socialnetwork",
		roots: []any{
			socialnetwork.ComposePostReq{}, socialnetwork.ComposePostResp{},
			socialnetwork.StorePostReq{}, socialnetwork.ReadPostReq{}, socialnetwork.ReadPostResp{},
			socialnetwork.ReadPostsReq{}, socialnetwork.ReadPostsResp{},
			socialnetwork.AppendTimelineReq{}, socialnetwork.ReadTimelineReq{}, socialnetwork.ReadTimelineResp{},
			socialnetwork.FanoutEvent{},
			socialnetwork.UploadMediaReq{}, socialnetwork.UploadMediaResp{},
			socialnetwork.GetMediaReq{}, socialnetwork.GetMediaResp{},
			socialnetwork.TextProcessReq{}, socialnetwork.TextProcessResp{},
			socialnetwork.InfoReq{}, socialnetwork.InfoResp{},
			socialnetwork.AdsReq{}, socialnetwork.AdsResp{},
			socialnetwork.BlockedListReq{}, socialnetwork.BlockedListResp{},
			socialnetwork.NeighborsReq{}, socialnetwork.NeighborsResp{}, socialnetwork.FollowReq{},
			socialnetwork.UniqueIDReq{}, socialnetwork.UniqueIDResp{},
			socialnetwork.ShortenReq{}, socialnetwork.ShortenResp{},
			socialnetwork.UserTagReq{}, socialnetwork.UserTagResp{},
			socialnetwork.ExistsReq{}, socialnetwork.ExistsResp{},
			socialnetwork.IndexPostReq{}, socialnetwork.BumpStatReq{},
		},
		jsonRoots: []any{socialnetwork.Post{}},
	},
	{
		dir: "internal/services/media", pkgName: "media",
		roots: []any{
			media.AddMovieReq{}, media.GetMovieReq{}, media.GetMovieResp{}, media.MoviesResp{},
			media.CastReq{}, media.CastResp{}, media.Review{}, media.Rental{},
		},
	},
	{
		dir: "internal/services/ecommerce", pkgName: "ecommerce",
		roots: []any{
			ecommerce.CartAddReq{}, ecommerce.CartReq{}, ecommerce.CartResp{},
			ecommerce.AddItemReq{}, ecommerce.GetItemReq{}, ecommerce.GetItemResp{}, ecommerce.ItemsResp{},
			ecommerce.PlaceOrderReq{}, ecommerce.PlaceOrderResp{},
			ecommerce.GetOrderReq{}, ecommerce.GetOrderResp{}, ecommerce.OrdersResp{},
			ecommerce.InvoiceReq{}, ecommerce.InvoiceResp{},
			ecommerce.DiscountReq{}, ecommerce.DiscountResp{}, ecommerce.AdjustStockReq{},
			ecommerce.AccountReq{}, ecommerce.BalanceResp{},
			ecommerce.ShippingQuoteReq{}, ecommerce.ShippingQuoteResp{}, ecommerce.TransactionIDResp{},
			ecommerce.AuthorizePaymentReq{},
		},
	},
	{
		dir: "internal/services/banking", pkgName: "banking",
		roots: []any{
			banking.CustomerReq{}, banking.CustomerResp{}, banking.PutCustomerReq{},
			banking.OpenAccountReq{}, banking.OpenAccountResp{},
			banking.AccountReq{}, banking.AccountResp{}, banking.AccountsResp{},
			banking.TransferReq{}, banking.TransferResp{},
			banking.LedgerReq{}, banking.LedgerResp{},
		},
	},
	{
		dir: "internal/services/swarm", pkgName: "swarm",
		roots: []any{
			swarm.RouteReq{}, swarm.RouteResp{}, swarm.AvoidReq{}, swarm.AvoidResp{},
			swarm.RecognizeReq{}, swarm.RecognizeResp{}, swarm.SensorReport{},
			swarm.StoreFrameReq{},
			swarm.LogReq{}, swarm.LogTailReq{}, swarm.LogTailResp{},
		},
	},
}

func typesOf(values []any) []reflect.Type {
	types := make([]reflect.Type, len(values))
	for i, v := range values {
		types[i] = reflect.TypeOf(v)
	}
	return types
}

func main() {
	check := flag.Bool("check", false, "verify generated files are up to date instead of writing")
	flag.Parse()

	stale := 0
	for _, t := range targets {
		pkgPath := "dsb/" + t.dir
		src, err := generate(t.pkgName, pkgPath, typesOf(t.roots), typesOf(t.jsonRoots))
		if err != nil {
			fmt.Fprintf(os.Stderr, "codecgen: %s: %v\n", t.dir, err)
			os.Exit(1)
		}
		out := filepath.Join(t.dir, "wire_gen.go")
		if *check {
			have, err := os.ReadFile(out)
			if err != nil || !bytes.Equal(have, src) {
				fmt.Fprintf(os.Stderr, "codecgen: %s is stale; run `make codecgen`\n", out)
				stale++
			}
			continue
		}
		if err := os.WriteFile(out, src, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "codecgen: write %s: %v\n", out, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", out)
	}
	if stale > 0 {
		os.Exit(1)
	}
}
