// Package p is the loader's type-error fixture: it parses, but one
// assignment does not type-check, so the run must report exactly one
// typecheck diagnostic instead of silently analyzing less.
package p

func width() int {
	var n int = "wide"
	return n
}
