package shop

import (
	"context"
	"testing"

	"cgfixture/internal/core"
)

// TestRestock is Restock's only caller: the census does not count it.
func TestRestock(t *testing.T) {
	app := core.NewApp()
	c, err := app.RPC("test", "shop.stock")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Call(context.Background(), "Restock", AddReq{Item: "i"}, nil); err != nil {
		t.Fatal(err)
	}
}
