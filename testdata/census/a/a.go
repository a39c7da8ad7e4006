// Package a holds one of each case the census must tell apart.
package a

import "fmt"

// Config is the fixture's knob root.
type Config struct {
	Size  int  // main sets it
	Debug bool // only a test sets it: a finding
}

// Used is called by main.
func Used(c Config) int { return c.Size }

// TestOnly is called only by a test: a finding.
func TestOnly() int { return 2 }

// Allowed is called only by a test, and allowlisted.
func Allowed() {}

// T is printed by main.
type T struct{ n int }

// String satisfies fmt.Stringer, so fmt calls it: not a finding.
func (t T) String() string { return fmt.Sprint(t.n) }

// helper is called only by a test: a finding.
func (t T) helper() int { return t.n }
