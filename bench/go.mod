module bayeslsh/bench

go 1.24

require bayeslsh v0.0.0

replace bayeslsh => ../
