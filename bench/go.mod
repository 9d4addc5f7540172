module byzshield/bench

go 1.22

require byzshield v0.0.0

replace byzshield => ../
