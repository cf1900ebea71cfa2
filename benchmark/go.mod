// The benchmark is a module of its own so that it builds with its own
// build file; the import path keeps the promises/ prefix, which is what
// lets it import promises/internal/... through the replace below.
module promises/benchmark

go 1.22

require promises v0.0.0

replace promises => ../
