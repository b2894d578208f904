// Package testutil holds what more than one package's tests need.
package testutil

import "runtime/debug"

// RaceEnabled reports whether the binary was built with -race, under which
// sync.Pool drops a share of what is put (pooled paths allocate) and timing
// ceilings are not meaningful.
func RaceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
