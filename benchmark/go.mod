module nlfl/benchmark

go 1.22

require nlfl v0.0.0

replace nlfl => ../
