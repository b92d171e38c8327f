// Package docstore is the fixture's store tier.
package docstore

import "cgfixture/internal/rpc"

// Doc is one stored document.
type Doc struct {
	ID     string
	Fields map[string]string
	Nums   map[string]int64
	Body   []byte
}

// RegisterService installs the store's methods.
func RegisterService(srv *rpc.Server) {
	for _, method := range []string{"Get", "Put", "Find", "AddNum"} {
		srv.Handle(method, func(ctx *rpc.Ctx, payload []byte) ([]byte, error) { return nil, nil })
	}
}
