//go:build dflydebug

package sim

// arenaDebug switches on the arena liveness checks: alloc panics if it
// hands out a ref that is still in flight, release panics on a
// double-free. It also makes every Step end by checking the occupancy
// counters against their queues. The constant lets the compiler delete
// the checks (and the live column) entirely from normal builds.
//
//	go test -tags dflydebug ./internal/sim/
const arenaDebug = true
