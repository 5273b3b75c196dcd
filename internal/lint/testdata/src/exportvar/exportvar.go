// Package exportvar exports an unexported function to its external
// test package through export_test.go, and that test package also
// reaches the package through exportuser: the loader must give both
// routes the same types, as the go tool does.
package exportvar

// T is the type both routes must agree on.
type T struct{ n int }

func hidden() T { return T{n: 1} }
