module fastppv/bench

go 1.24

require fastppv v0.0.0

replace fastppv => ../
