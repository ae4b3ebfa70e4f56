module github.com/diorama/continual/benchmark

go 1.22

require github.com/diorama/continual v0.0.0

replace github.com/diorama/continual => ../
