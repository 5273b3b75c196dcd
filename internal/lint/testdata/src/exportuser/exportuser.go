// Package exportuser imports exportvar, so exportvar's external test
// package sees exportvar through it as well as directly.
package exportuser

import "exportvar"

// Wrap returns t.
func Wrap(t exportvar.T) exportvar.T { return t }
