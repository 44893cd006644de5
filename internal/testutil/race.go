//go:build race

package testutil

// RaceEnabled reports whether the binary was built with -race. The race
// detector's instrumentation moves some stack buffers to the heap, so
// allocation budgets hold only without it.
const RaceEnabled = true
