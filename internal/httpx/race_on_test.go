//go:build race

package httpx

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation budgets do not hold under it.
const raceEnabled = true
