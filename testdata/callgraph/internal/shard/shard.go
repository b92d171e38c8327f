// Package shard is the fixture's router: the replica groups of one tier.
package shard

import "cgfixture/internal/rpc"

// Router routes keys to one tier's replica groups.
type Router struct{ c *rpc.Client }

// NewRouter returns a router of target.
func NewRouter(target string) *Router { return &Router{c: rpc.NewClient(target)} }

// Route returns the replicas of the group owning key.
func (r *Router) Route(key string) []*rpc.Client { return []*rpc.Client{r.c} }
