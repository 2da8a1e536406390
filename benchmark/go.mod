// The benchmark is a module of its own so that one command builds it from a
// bare checkout; the replace line points it at the repository it measures.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
