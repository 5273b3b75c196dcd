// Package stduserb is stdusera's twin over a different standard-library
// package, so the two load into the shared importer side by side.
package stduserb

import "container/ring"

// New returns a one-element ring.
func New() *ring.Ring { return ring.New(1) }
