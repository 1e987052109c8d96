// Package a is the spanhygiene golden package: every span is Ended by
// a defer on the line after it opens, and concurrent code opens
// children with Span.Child.
package a

import (
	"context"
	"errors"

	"smartndr/internal/obs"
	"smartndr/internal/par"
)

// Flagged: sp leaks on the early error return.
func LeakOnReturn(tr *obs.Tracer, fail bool) error {
	sp := tr.Start("work") // want "span sp is not released by a defer right after its acquisition"
	if fail {
		return errors.New("boom")
	}
	sp.End()
	return nil
}

// Flagged: the handle is thrown away, so nothing can End the span.
func Discarded(tr *obs.Tracer) {
	tr.Start("fire-and-forget") // want "span handle is discarded"
	_ = tr.Start("blanked")     // want "span handle is discarded"
}

// Flagged: each iteration opens a span the body never closes.
func LeakInLoop(root *obs.Span, n int) {
	for i := 0; i < n; i++ {
		sp := root.Child("iter") // want "span sp is acquired in a loop body"
		sp.Set("i", i)
	}
}

// Flagged: ambient-stack Start inside a go statement races the tracer's
// span stack. The discarded-handle report fires at the same call.
func ConcurrentAmbient(tr *obs.Tracer) {
	go func() {
		tr.Start("racy") // want "Tracer.Start uses the tracer's ambient span stack inside a go statement" "span handle is discarded"
	}()
}

// Flagged: Span.Start inside a par worker closure.
func WorkerAmbient(ctx context.Context, sp *obs.Span, n int) error {
	return par.ForEach(ctx, 0, n, func(i int) error {
		c := sp.Start("item") // want "Span.Start uses the tracer's ambient span stack inside a par worker closure"
		defer c.End()
		return nil
	})
}

// Flagged: every arm Ends the span explicitly, but only a defer on the
// next line makes that checkable without path reasoning.
func AllPathsEnd(tr *obs.Tracer, fast bool) {
	sp := tr.Start("work") // want "span sp is not released by a defer right after its acquisition"
	if fast {
		sp.End()
		return
	}
	sp.Set("slow", true)
	sp.End()
}

// Flagged: the span escapes to the caller. Returning an open span hands
// the caller an obligation the rule cannot see; open it there instead.
func OpenSection(tr *obs.Tracer, name string) *obs.Span {
	sp := tr.Start(name, obs.S("kind", "section")) // want "span sp is not released by a defer right after its acquisition"
	return sp
}

// Flagged: opened in an if init, with no statement of its own for the
// defer to follow.
func OpenInIfInit(tr *obs.Tracer, fast bool) {
	if sp := tr.Start("work"); fast { // want "span is acquired inside another statement"
		sp.End()
	}
}

// Flagged: opened as a call argument.
func OpenAsArgument(tr *obs.Tracer) {
	finish(tr.Start("work")) // want "span is acquired inside another statement"
}

// Flagged: a defer in a loop body runs at function return, not at the
// iteration end, so each iteration pins another open span.
func DeferInLoop(root *obs.Span, n int) {
	for i := 0; i < n; i++ {
		sp := root.Child("iter") // want "span sp is acquired in a loop body"
		defer sp.End()
	}
}

// Flagged: Ended before each iteration ends, which is again a path
// argument the rule does not make.
func EndInLoop(root *obs.Span, n int) {
	for i := 0; i < n; i++ {
		sp := root.Child("iter") // want "span sp is acquired in a loop body"
		sp.Set("i", i)
		sp.End()
	}
}

// Clean: defer right after Start covers every path.
func DeferEnd(tr *obs.Tracer, fail bool) error {
	sp := tr.Start("work")
	defer sp.End()
	if fail {
		return errors.New("boom")
	}
	return nil
}

// Clean: End inside a deferred closure also covers every path.
func DeferClosureEnd(tr *obs.Tracer) (err error) {
	sp := tr.Start("work")
	defer func() {
		sp.Set("err", err)
		sp.End()
	}()
	return nil
}

// Clean: the explicit End closes the section where it ends; the defer
// covers the early returns, and End is idempotent.
func SectionEnd(tr *obs.Tracer, fail bool) error {
	sp := tr.Start("section")
	defer sp.End()
	if fail {
		return errors.New("boom")
	}
	sp.End()
	return nil
}

// Clean: the loop body is a function of its own, so its span defers
// once per iteration.
func DeferPerIteration(root *obs.Span, n int) {
	for i := 0; i < n; i++ {
		step(root, i)
	}
}

func step(root *obs.Span, i int) {
	sp := root.Child("iter", obs.I("i", i))
	defer sp.End()
}

// Clean: the worker opens a stack-free child and closes it per item.
func WorkerChild(ctx context.Context, sp *obs.Span, n int) error {
	return par.ForEach(ctx, 0, n, func(i int) error {
		c := sp.Child("item", obs.I("i", i))
		defer c.End()
		return nil
	})
}

// Clean: a deliberate exception, suppressed with a justification.
func Allowed(tr *obs.Tracer) *obs.Span {
	//lint:allow spanhygiene the caller Ends the section it receives
	sp := tr.Start("section")
	return sp
}

func finish(sp *obs.Span) { sp.End() }
