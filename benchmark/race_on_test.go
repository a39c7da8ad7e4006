//go:build race

package main

// raceEnabled: the race detector slows the data path about twentyfold, so
// a one-second smoke phase may complete no erasure-coded operation at all.
// Checks that a throughput is nonzero are skipped; everything else holds.
const raceEnabled = true
