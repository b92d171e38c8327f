// Package mq is the fixture's broker tier and its typed client.
package mq

import (
	"context"

	"cgfixture/internal/rpc"
	"cgfixture/internal/transport"
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

// Client is the one Bus.
type Client struct{ C transport.Caller }

// Publish sends body to topic.
func (c Client) Publish(ctx context.Context, topic string, body []byte) error {
	return c.C.Call(ctx, "Publish", topic, nil)
}

// Consume takes one message off topic.
func (c Client) Consume(ctx context.Context, topic string) ([]byte, error) {
	var body []byte
	err := c.C.Call(ctx, "Consume", topic, &body)
	return body, err
}
