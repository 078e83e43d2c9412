// Package shard keeps the names the frozen benchmark builds a sharded
// serving stack by: a Router is a core.System, and New is core.NewSharded.
package shard

import "tripoline/internal/core"

// Router is a System over hash-partitioned stores.
type Router = core.System

// New builds a System over n vertices split across S stores (see
// core.NewSharded).
func New(n int, directed bool, shards, k int) *Router {
	return core.NewSharded(n, directed, shards, k)
}
