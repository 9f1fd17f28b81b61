//go:build race

package tierdb

func init() { raceEnabled = true }
