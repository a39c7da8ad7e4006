package a

import "testing"

func TestFixture(t *testing.T) {
	c := Config{Debug: true}
	Allowed()
	if TestOnly()+(T{}).helper() != 2 || !c.Debug {
		t.Fatal("fixture")
	}
}
