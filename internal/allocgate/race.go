//go:build race

package allocgate

// RaceEnabled is true in a -race build.
const RaceEnabled = true
