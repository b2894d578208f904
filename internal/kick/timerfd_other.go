//go:build !linux

package kick

import "time"

// Off Linux there is no wake fd: every wait is the plain time call.
type wakeFd struct{}

func arm(*wakeFd, time.Duration) *wakeFd { return nil }
func give(*wakeFd)                       {}
