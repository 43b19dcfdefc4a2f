// The benchmark is a module of its own so that it can be copied onto
// any commit of the repository and built there unchanged. Its import
// path sits under graql/, which is what lets it reach graql/internal/...
module graql/bench

go 1.23

require graql v0.0.0

replace graql => ../
