// The root module has no requirements: everything, cmd/dynamo-vet and its
// analyzers included, builds from this checkout and a Go toolchain alone.
module dynamo

go 1.22
