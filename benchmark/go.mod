module slidb/benchmark

go 1.24

require slidb v0.0.0

replace slidb => ../
