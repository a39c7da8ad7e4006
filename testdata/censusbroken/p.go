// Package p imports a package that does not exist, so go list fails and
// the census must fail with it (census_test.go).
package p

import _ "censusbroken/missing"
