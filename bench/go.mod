module blinktree/bench

go 1.23

require blinktree v0.0.0

replace blinktree => ../
