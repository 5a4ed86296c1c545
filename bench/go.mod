module walberla/bench

go 1.22

require walberla v0.0.0

replace walberla => ../
