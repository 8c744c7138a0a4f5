module github.com/sealdb/seal/benchmark

go 1.24

require github.com/sealdb/seal v0.0.0

replace github.com/sealdb/seal => ../
