// Package stdusera imports a standard-library package no other fixture
// imports, so loading it makes the shared stdlib importer type-check
// that package rather than return a cached one.
package stdusera

import "container/list"

// New returns an empty list.
func New() *list.List { return list.New() }
