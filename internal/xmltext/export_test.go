package xmltext

// InTagTable reports whether n is one of the emitter's precomputed tags, for
// the external tests that hold the table to what the SOAP writers emit.
func InTagTable(n Name) bool {
	_, ok := tagTable[n]
	return ok
}
