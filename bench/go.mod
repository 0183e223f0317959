module accelstream/bench

go 1.22

require accelstream v0.0.0

replace accelstream => ../
