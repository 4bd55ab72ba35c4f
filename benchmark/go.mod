module v2v/benchmark

go 1.24

require v2v v0.0.0

replace v2v => ../
