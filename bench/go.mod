module t3/bench

go 1.24

require t3 v0.0.0

replace t3 => ../
