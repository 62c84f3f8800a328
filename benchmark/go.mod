module algrec/benchmark

go 1.22

require algrec v0.0.0

replace algrec => ../
