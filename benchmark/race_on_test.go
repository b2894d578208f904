//go:build race

package main

// raceEnabled: the race detector allocates on paths that otherwise do not.
const raceEnabled = true
