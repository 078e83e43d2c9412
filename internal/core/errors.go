package core

import (
	"errors"

	"tripoline/internal/engine"
)

// Typed failure classes of the system API. Every error the System returns
// wraps exactly one of these sentinels (match with errors.Is), so callers
// — the HTTP server in particular — can map failures to behavior without
// parsing message strings. The wrapped messages still carry the specific
// detail (which problem, which source, which version).
var (
	// ErrUnknownProblem: the named problem is not enabled (or, for
	// Enable, not a recognized built-in).
	ErrUnknownProblem = errors.New("unknown or not-enabled problem")

	// ErrSourceOutOfRange: a query source vertex is not in [0, NumVertices).
	ErrSourceOutOfRange = errors.New("source vertex out of range")

	// ErrNoSuchVersion: QueryAt named a version that is not retained
	// (history disabled, never recorded, or already evicted).
	ErrNoSuchVersion = errors.New("graph version not retained")

	// ErrCanceled: the evaluation was stopped by its context — the
	// engine's sentinel re-exported so callers need not import engine.
	// The concrete error also unwraps to the context cause
	// (context.Canceled or context.DeadlineExceeded).
	ErrCanceled = engine.ErrCanceled

	// ErrSubscribeUnsupported: SubscribeCtx named a problem whose answer is
	// not one value per vertex (Radii's width-16 answers do not fit the
	// per-vertex delta frame model).
	ErrSubscribeUnsupported = errors.New("problem does not support subscriptions")

	// ErrReservedName: EnableCustom was handed a problem named after a
	// built-in (see CustomProblem).
	ErrReservedName = errors.New("custom problem name is reserved for a built-in")
)
