// Package core is the fixture's composition root.
package core

import (
	"cgfixture/internal/rest"
	"cgfixture/internal/rpc"
)

// App boots tiers and builds clients.
type App struct{}

// NewApp returns an app.
func NewApp() *App { return &App{} }

// StartRPC boots an RPC tier.
func (a *App) StartRPC(service string, register func(*rpc.Server)) (string, error) {
	register(rpc.NewServer(service))
	return service, nil
}

// StartREST boots a front door.
func (a *App) StartREST(service string, register func(*rest.Server)) (string, error) {
	register(&rest.Server{})
	return service, nil
}

// RPC returns a client from caller to target.
func (a *App) RPC(caller, target string) (*rpc.Client, error) { return rpc.NewClient(target), nil }
