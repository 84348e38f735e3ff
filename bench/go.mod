// The benchmark is a module of its own so that it builds from this
// directory alone plus the repository it measures: it imports
// dynamo/internal/... through the replace below (the module path keeps the
// dynamo/ prefix, which is what makes those internal packages importable)
// and nothing outside the standard library.
module dynamo/bench

go 1.22

require dynamo v0.0.0

replace dynamo => ../
