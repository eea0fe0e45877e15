//go:build race

package harness

func init() { raceDetector = true }
