// Package pq provides the priority-queue substrates used by the schedulers:
// a binary heap (the per-core software PQ of RELD and HD-CPS) and its d-ary
// variant, the two-level hot-buffer/bucket queue, the relaxed MultiQueue,
// and a small bounded heap modeling the paper's hardware priority queue
// (hPQ), which the two-level queue's tests use as their oracle.
//
// All queues are min-queues over task.Task: Pop returns the task with the
// numerically smallest Prio. None of them is safe for concurrent use; the
// schedulers add their own synchronization, exactly as the paper's software
// designs do.
package pq

import "hdcps/internal/task"

// Queue is the common interface of all priority-queue implementations.
type Queue interface {
	// Push inserts a task.
	Push(t task.Task)
	// Pop removes and returns the highest-priority (minimum Prio) task.
	// The second result is false if the queue is empty.
	Pop() (task.Task, bool)
	// Peek returns the highest-priority task without removing it.
	Peek() (task.Task, bool)
	// Len returns the number of queued tasks.
	Len() int
}
