module pivote/bench

go 1.24

require pivote v0.0.0

replace pivote => ../
