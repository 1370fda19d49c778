module pane/bench

go 1.24

require pane v0.0.0

replace pane => ../
