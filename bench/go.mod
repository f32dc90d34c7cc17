module knemesis/bench

go 1.22

require knemesis v0.0.0

replace knemesis => ../
