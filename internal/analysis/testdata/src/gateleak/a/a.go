// Package a is the gateleak golden package: the release func returned
// by par.Gate.Acquire is deferred right after the error check.
package a

import (
	"context"
	"errors"

	"smartndr/internal/par"
)

// Flagged: the early return leaks the slot.
func LeakOnReturn(ctx context.Context, g *par.Gate, fail bool) error {
	release, err := g.Acquire(ctx) // want "gate release release is not released by a defer right after its acquisition"
	if err != nil {
		return err
	}
	if fail {
		return errors.New("boom")
	}
	release()
	return nil
}

// Flagged: the release func is thrown away; the slot can never free.
func Discarded(ctx context.Context, g *par.Gate) {
	_, _ = g.Acquire(ctx) // want "gate release handle is discarded"
}

// Flagged: the winner path releases, but slow iterations leak their
// slot when the iteration ends.
func LeakInLoop(ctx context.Context, g *par.Gate, n int) {
	for i := 0; i < n; i++ {
		release, err := g.Acquire(ctx) // want "gate release release is acquired in a loop body"
		if err != nil {
			return
		}
		if i%2 == 0 {
			release()
		}
	}
}

// Flagged: a defer inside the loop body does not run until the
// function returns, so slots accumulate across iterations.
func DeferInLoop(ctx context.Context, g *par.Gate, n int) {
	for i := 0; i < n; i++ {
		release, err := g.Acquire(ctx) // want "gate release release is acquired in a loop body, where a defer runs at function return"
		if err != nil {
			return
		}
		defer release()
	}
}

// Flagged: acquired in an if init.
func AcquiredInIfInit(ctx context.Context, g *par.Gate) error {
	if release, err := g.Acquire(ctx); err == nil { // want "gate release is acquired inside another statement"
		defer release()
		return work(ctx)
	}
	return nil
}

// Flagged: acquired as a call argument.
func AcquiredAsArgument(ctx context.Context, g *par.Gate) error {
	return held(g.Acquire(ctx)) // want "gate release is acquired inside another statement"
}

// Clean: the standard idiom — acquire, check the error, defer.
func DeferAfterErrCheck(ctx context.Context, g *par.Gate) error {
	release, err := g.Acquire(ctx)
	if err != nil {
		return err
	}
	defer release()
	return work(ctx)
}

// Clean: released inside a deferred cleanup closure.
func DeferredClosure(ctx context.Context, g *par.Gate) error {
	release, err := g.Acquire(ctx)
	if err != nil {
		return err
	}
	defer func() {
		release()
	}()
	return work(ctx)
}

// Flagged: released explicitly on both branch exits, which only path
// reasoning can confirm.
func ReleasedOnAllPaths(ctx context.Context, g *par.Gate, fast bool) error {
	release, err := g.Acquire(ctx) // want "gate release release is not released by a defer right after its acquisition"
	if err != nil {
		return err
	}
	if fast {
		release()
		return nil
	}
	werr := work(ctx)
	release()
	return werr
}

// Flagged: released before each iteration ends, hedge-loser style.
func ReleasedInLoop(ctx context.Context, g *par.Gate, n int) {
	for i := 0; i < n; i++ {
		release, err := g.Acquire(ctx) // want "gate release release is acquired in a loop body"
		if err != nil {
			continue
		}
		if work(ctx) != nil {
			release()
			continue
		}
		release()
	}
}

// Flagged: the release escapes to the caller, as in a pool handing out
// slot-scoped cleanup funcs — an obligation the rule cannot follow.
func Escapes(ctx context.Context, g *par.Gate) (func(), error) {
	release, err := g.Acquire(ctx) // want "gate release release is not released by a defer right after its acquisition"
	if err != nil {
		return nil, err
	}
	return release, nil
}

// Clean: a deliberate leak on the failure path, annotated with why.
func Allowed(ctx context.Context, g *par.Gate, fail bool) error {
	//lint:allow gateleak slot intentionally pinned until process exit
	release, err := g.Acquire(ctx)
	if err != nil {
		return err
	}
	if fail {
		return nil
	}
	release()
	return nil
}

// Clean: each iteration holds its slot in a function of its own, whose
// defer releases it before the next iteration acquires.
func DeferPerIteration(ctx context.Context, g *par.Gate, n int) error {
	for i := 0; i < n; i++ {
		if err := workHeld(ctx, g); err != nil {
			return err
		}
	}
	return nil
}

func workHeld(ctx context.Context, g *par.Gate) error {
	release, err := g.Acquire(ctx)
	if err != nil {
		return err
	}
	defer release()
	return work(ctx)
}

func held(release func(), err error) error {
	if err != nil {
		return err
	}
	defer release()
	return nil
}

func work(ctx context.Context) error { return nil }
