// Package shard keeps the names the frozen benchmark builds its serving
// stack by: a Router is a core.System, and New builds one.
package shard

import (
	"tripoline/internal/core"
	"tripoline/internal/streamgraph"
)

// Router is a System.
type Router = core.System

// New builds a System over n fresh vertices of the given orientation,
// with at most k standing queries per set. shards is ignored: a System is
// one store at every configuration — evaluation always ran once over the
// whole graph, so splitting the store only routed writes and put an owner
// lookup on every span read.
func New(n int, directed bool, shards, k int) *Router {
	return core.NewSystem(streamgraph.New(n, directed), k)
}
