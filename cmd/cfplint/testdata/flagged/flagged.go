// Package flagged carries one deliberate varintbounds violation so the
// driver tests can observe a finding, the exit status, and the -json
// artifact. It lives under testdata, which `go list ./...` skips, so
// the real lint run never sees it.
package flagged

import "cfpgrowth/internal/encoding"

// Value discards the varint length, the exact mistake varintbounds
// exists to catch: a truncated buffer would read as value 0.
func Value(b []byte) uint64 {
	v, _ := encoding.Uvarint(b)
	return v
}
