// Command censusfixture is the reachability census's fixture
// (census_test.go): main is the non-test code that reaches package a.
package main

import (
	"fmt"

	"censusfixture/a"
)

func main() {
	fmt.Println(a.Used(a.Config{Size: 1}), a.T{})
}
