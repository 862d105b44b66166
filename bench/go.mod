// The benchmark is a module of its own so that it builds from its own
// directory; it reaches the system's packages through the parent
// module, whose import-path prefix it shares (repro/internal/... is
// importable from repro/bench).
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
