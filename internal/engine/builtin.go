package engine

// The built-in engines, registered in the order the paper compares them
// (and the order benchmark rows and `-engine list` present them).
func init() {
	Register(casaFactory())
	Register(ertFactory())
	Register(genaxFactory())
	Register(cpuFactory())
	Register(fmindexFactory())
	Register(bruteFactory())
}
