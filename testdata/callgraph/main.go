// Command cgfixture boots the shop and calls it through its handle.
package main

import (
	"context"

	"cgfixture/internal/core"
	"cgfixture/internal/services/shop"
)

func main() {
	sh, err := shop.New(core.NewApp())
	if err != nil {
		panic(err)
	}
	// The handle field carries the relay tier's client to this call.
	if err := sh.Relay.Call(context.Background(), "Count", struct{}{}, nil); err != nil {
		panic(err)
	}
}
