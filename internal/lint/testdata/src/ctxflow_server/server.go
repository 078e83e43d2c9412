// Package server shows that the ctxflow struct-field rule has no
// serving-layer exemption: a request object carries no context.
package server

import "context"

type request struct {
	ctx context.Context // want "stored in a struct field"
}

func (r *request) context() context.Context { return r.ctx }
