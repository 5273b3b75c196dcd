package exportvar_test

import (
	"testing"

	"exportuser"
	"exportvar"
)

func TestSameType(t *testing.T) {
	var v exportvar.T = exportuser.Wrap(exportvar.Hidden())
	_ = v
}
