// Package ctxtest is the golden suite for the ctxcheckpoint analyzer:
// round loops in functions reachable from a Spec registration must reach
// a context checkpoint.
package ctxtest

import (
	"context"
	"sync/atomic"
)

type Spec struct {
	Name string
	run  func(ctx context.Context) int
}

var registry = []Spec{
	{Name: "bad", run: badRun},
	{Name: "good", run: goodRun},
	{Name: "inline", run: func(ctx context.Context) int {
		total := 0
		for i := 0; i < 64; i++ { // want "round loop never reaches a context checkpoint"
			total += work(i)
		}
		return total
	}},
}

// work is non-trivial (it loops), so loops calling it are round loops.
func work(n int) int {
	acc := 0
	for i := 0; i < n; i++ {
		acc += i
	}
	return acc
}

// degree is trivial: a loop calling only it is not long-running.
func degree(n int) int { return n + 1 }

// checkpoint polls the context; callers inherit the checkpoints mark.
func checkpoint(ctx context.Context) {
	if ctx.Err() != nil {
		panic(ctx.Err())
	}
}

func badRun(ctx context.Context) int {
	total := 0
	for round := 0; round < 10; round++ { // want "round loop never reaches a context checkpoint"
		total += work(round)
	}
	return total
}

func goodRun(ctx context.Context) int {
	total := 0
	for round := 0; round < 10; round++ {
		checkpoint(ctx)
		total += work(round)
	}
	// Direct polls also count.
	for round := 0; round < 10; round++ {
		select {
		case <-ctx.Done():
			return total
		default:
		}
		total += work(round)
	}
	// Trivial-only loops and CAS spins on sync/atomic need no checkpoint.
	var v int64
	for i := 0; i < 10; i++ {
		total += degree(i)
	}
	for {
		old := atomic.LoadInt64(&v)
		if atomic.CompareAndSwapInt64(&v, old, old+1) {
			break
		}
	}
	return total
}

// unreachable has a checkpoint-free loop but is not reachable from any
// Spec, so it is not checked.
func unreachable() int {
	total := 0
	for i := 0; i < 10; i++ {
		total += work(i)
	}
	return total
}
