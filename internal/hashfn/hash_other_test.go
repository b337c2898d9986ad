//go:build !amd64

package hashfn

import "testing"

// archPaths: off amd64 the table loop is the only path.
func archPaths(*testing.T) []hashPath { return nil }
