// Package core is the fixture's composition root.
package core

import (
	"cgfixture/internal/rest"
	"cgfixture/internal/rpc"
	"cgfixture/internal/shard"
)

// App boots tiers and builds clients.
type App struct{ defined map[string]func(*rpc.Server) }

// NewApp returns an app.
func NewApp() *App { return &App{} }

// StartRPC boots an RPC tier.
func (a *App) StartRPC(service string, register func(*rpc.Server)) (string, error) {
	register(rpc.NewServer(service))
	return service, nil
}

// Define records how to build a replica of a tier.
func (a *App) Define(service string, register func(*rpc.Server)) {
	if a.defined == nil {
		a.defined = map[string]func(*rpc.Server){}
	}
	a.defined[service] = register
}

// Spawn boots one replica of a defined tier.
func (a *App) Spawn(service string) (string, error) {
	return a.StartRPC(service, a.defined[service])
}

// StartREST boots a front door.
func (a *App) StartREST(service string, register func(*rest.Server)) (string, error) {
	register(&rest.Server{})
	return service, nil
}

// RPC returns a client from caller to target.
func (a *App) RPC(caller, target string) (*rpc.Client, error) { return rpc.NewClient(target), nil }

// ShardedRPC returns a router from caller to target's replica groups.
func (a *App) ShardedRPC(caller, target string) (*shard.Router, error) {
	return shard.NewRouter(target), nil
}
