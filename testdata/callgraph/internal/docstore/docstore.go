// Package docstore is the fixture's store tier.
package docstore

import "cgfixture/internal/rpc"

// RegisterService installs the store's one method.
func RegisterService(srv *rpc.Server) {
	srv.Handle("Get", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) { return nil, nil })
}
