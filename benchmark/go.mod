module clipper/benchmark

go 1.24

require clipper v0.0.0

replace clipper => ../
