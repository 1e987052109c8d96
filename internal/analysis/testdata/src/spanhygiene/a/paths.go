package a

import (
	"errors"

	"smartndr/internal/obs"
)

// The control-flow shapes below — goto, labeled break and continue out
// of nested loops, select arms — are flagged wherever the span is not
// deferred on the line after it opens, however each path ends it. A
// deferred span stays clean across any of them.

// Flagged: the goto path skips the End.
func GotoLeak(tr *obs.Tracer, fail bool) error {
	sp := tr.Start("work") // want "span sp is not released by a defer right after its acquisition"
	if fail {
		goto bail
	}
	sp.End()
	return nil
bail:
	return errors.New("boom")
}

// Flagged: break outer ends the outer iteration with sp still open.
func LabeledBreakLeak(root *obs.Span, rows [][]int) {
outer:
	for _, row := range rows {
		sp := root.Child("row") // want "span sp is acquired in a loop body"
		for _, v := range row {
			if v < 0 {
				break outer
			}
		}
		sp.End()
	}
}

// Flagged: continue outer ends the outer iteration with sp still open.
func LabeledContinueLeak(root *obs.Span, rows [][]int) {
outer:
	for _, row := range rows {
		sp := root.Child("row") // want "span sp is acquired in a loop body"
		for _, v := range row {
			if v == 0 {
				continue outer
			}
		}
		sp.End()
	}
}

// Flagged: the default arm leaves the span open.
func SelectDefaultLeak(root *obs.Span, ch <-chan int) {
	sp := root.Child("wait") // want "span sp is not released by a defer right after its acquisition"
	select {
	case <-ch:
		sp.End()
	default:
	}
}

// Clean: the span is opened outside the loops and deferred, so the
// labeled break leaves nothing open.
func LabeledBreakClean(root *obs.Span, rows [][]int) {
	sp := root.Child("scan")
	defer sp.End()
outer:
	for _, row := range rows {
		for _, v := range row {
			if v < 0 {
				break outer
			}
		}
	}
}

// Clean: a span opened in a select arm and deferred there is Ended at
// function return, whichever arm ran.
func SelectArmDefer(root *obs.Span, a, b <-chan int) {
	select {
	case <-a:
		sp := root.Child("a")
		defer sp.End()
	case <-b:
	}
}
