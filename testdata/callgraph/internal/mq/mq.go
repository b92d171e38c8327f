// Package mq is the fixture's broker tier and its typed client.
package mq

import (
	"context"

	"cgfixture/internal/rpc"
	"cgfixture/internal/shard"
)

// RegisterService installs the broker's methods.
func RegisterService(srv *rpc.Server) {
	srv.Handle("Publish", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) { return nil, nil })
	srv.Handle("Consume", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) { return nil, nil })
}

// Bus is a broker client.
type Bus interface {
	Publish(ctx context.Context, topic string, body []byte) error
	Consume(ctx context.Context, topic string) ([]byte, error)
}

// Partitioned is the one Bus: a client of the broker's replica groups.
type Partitioned struct{ router *shard.Router }

// NewPartitioned returns a Bus over router.
func NewPartitioned(router *shard.Router) *Partitioned { return &Partitioned{router: router} }

// Publish sends body to topic.
func (p *Partitioned) Publish(ctx context.Context, topic string, body []byte) error {
	return p.router.Route(topic)[0].Call(ctx, "Publish", topic, nil)
}

// Consume takes one message off topic.
func (p *Partitioned) Consume(ctx context.Context, topic string) ([]byte, error) {
	var body []byte
	err := p.router.Route(topic)[0].Call(ctx, "Consume", topic, &body)
	return body, err
}
