// Package kv is the fixture's cache tier.
package kv

import "cgfixture/internal/rpc"

// RegisterService installs the cache's methods.
func RegisterService(srv *rpc.Server) {
	srv.Handle("Get", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) { return nil, nil })
	srv.Handle("Set", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) { return nil, nil })
}
