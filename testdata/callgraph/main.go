// Command cgfixture boots the shop and the notes apps and calls them through
// their handles.
package main

import (
	"context"
	"os"

	"cgfixture/internal/core"
	"cgfixture/internal/services/notes"
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
	n, err := notes.New(core.NewApp())
	if err != nil {
		panic(err)
	}
	// The tag is no constant: a Find by it reads every field of its collection.
	tag := os.Args[1]
	if err := n.Save(context.Background(), "n1", "ann", tag); err != nil {
		panic(err)
	}
	if _, err := n.Load(context.Background(), "n1", tag); err != nil {
		panic(err)
	}
}
