// Package flagged carries one deliberate goroutinesafe violation so
// the driver tests can observe a finding, the exit status, and the
// -json artifact. It lives under testdata, which `go list ./...` skips,
// so the real lint run never sees it.
package flagged

// Spawn starts f and returns without joining it, the exact mistake
// goroutinesafe exists to catch: the goroutine can outlive the run.
func Spawn(f func()) {
	go f()
}
